//go:build !amd64

package tensor

// mergeRunsKernel is MergeRuns' kernel; only amd64 has an assembly one.
func mergeRunsKernel(mk []int32, mv []float32, ak []int32, av []float32, bk []int32, bv []float32) int {
	return mergeRunsGo(mk, mv, ak, av, bk, bv)
}
