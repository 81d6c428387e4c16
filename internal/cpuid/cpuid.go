// Package cpuid reads, once, the x86 features the vector kernels of
// internal/fft and internal/resist run on. It is the only place a path is
// chosen: there is no flag, environment variable or build tag, and on any
// other architecture both features read false and the pure-Go loops run.
package cpuid

// AVX reports 256-bit AVX with the OS saving YMM state: the FFT passes.
// AVX2FMA reports AVX2 and FMA besides: the sigmoid's exp, fused exactly
// as math.Exp's own FMA branch (math.useFMA = AVX && FMA) is.
var AVX, AVX2FMA = detect()
