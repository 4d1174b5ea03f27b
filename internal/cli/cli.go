// Package cli holds small helpers shared by the command-line binaries.
package cli

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"omnireduce/internal/protocol"
)

// ShapeFlags registers the block-geometry flags cmd/worker and
// cmd/aggregator share: -block-size, -fusion and -streams. Each defaults to
// 0, which passes the choice through to the library (protocol.Defaults),
// so binaries built from different commits run whatever their library
// defaults to and only an explicit flag can pin a value; the usage text
// shows the library's current value.
func ShapeFlags(fs *flag.FlagSet) (blockSize, fusion, streams *int) {
	d := protocol.Defaults()
	usage := func(what string, def int) string {
		return fmt.Sprintf("%s (0 = library default, currently %d)", what, def)
	}
	blockSize = fs.Int("block-size", 0, usage("elements per block", d.BlockSize))
	fusion = fs.Int("fusion", 0, usage("blocks fused per packet", d.FusionWidth))
	streams = fs.Int("streams", 0, usage("parallel aggregation streams", d.Streams))
	return blockSize, fusion, streams
}

// ParseIDList parses a comma-separated list of node IDs ("5,6"); empty
// input returns nil.
func ParseIDList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad node id %q: %w", part, err)
		}
		out = append(out, n)
	}
	return out, nil
}

// ParseNodes parses a comma-separated "id=host:port" address book.
func ParseNodes(s string) (map[int]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty -nodes address book")
	}
	out := make(map[int]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad node entry %q (want id=host:port)", part)
		}
		n, err := strconv.Atoi(strings.TrimSpace(id))
		if err != nil {
			return nil, fmt.Errorf("bad node id in %q: %w", part, err)
		}
		if _, dup := out[n]; dup {
			return nil, fmt.Errorf("duplicate node id %d", n)
		}
		out[n] = strings.TrimSpace(addr)
	}
	return out, nil
}
