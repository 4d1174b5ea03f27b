package metrics

import "sync"

// Counters is a small set of named monotonic event counters, safe for
// concurrent use, that the reporting toolkit renders as a table (the
// transport buffer pool's tallies, the counting tracer's event counts).
type Counters struct {
	mu    sync.Mutex
	order []string
	vals  map[string]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{vals: make(map[string]int64)}
}

// Add increments the named counter by delta, creating it at zero first.
// Counter creation order is remembered for rendering.
func (c *Counters) Add(name string, delta int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.vals[name]; !ok {
		c.order = append(c.order, name)
	}
	c.vals[name] += delta
}

// Snapshot returns a copy of all counters.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.vals))
	for k, v := range c.vals {
		out[k] = v
	}
	return out
}

// Table renders the counters as a two-column table in creation order,
// read under one lock acquisition so the rows are a consistent
// point-in-time view even while other goroutines Add.
func (c *Counters) Table(title string) *Table {
	t := NewTable(title, "event", "count")
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.order {
		t.AddRow(n, c.vals[n])
	}
	return t
}
