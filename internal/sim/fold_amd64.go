package sim

// foldPairAVX is foldPair's kernel, in fold_amd64.s: dst[i] +=
// ma*re*re + mb*im*im over f[:len(f)&^3], four pixels a step with the Go
// loop's products and sum unfused and in its order, and returns that
// count. dst is as long as f.
//
//go:noescape
func foldPairAVX(dst []float64, f []complex128, ma, mb float64) int
