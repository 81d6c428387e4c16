// Package cpuid reads, once, the x86 features the vector kernels of
// internal/fft, internal/resist, internal/ilt, internal/metrics,
// internal/grid and internal/sim run on. It is the only place a path is
// chosen: there is no flag, environment variable or build tag, and on any
// other architecture every feature reads false and the pure-Go loops run.
package cpuid

// AVX reports 256-bit AVX with the OS saving YMM state: the FFT's line
// and column passes.
// AVX2FMA reports AVX2 and FMA besides: the sigmoid's exp, fused exactly
// as math.Exp's own FMA branch (math.useFMA = AVX && FMA) is.
var AVX, AVX2FMA = detect()

// PixelAVX selects the per-pixel kernels around the transforms, each an
// unfused VMULPD/VADDPD/VSUBPD sequence in its Go loop's order that needs
// AVX and nothing more:
//   - ilt's sensitivity terms (VMULPD, VSUBPD, VADDPD);
//   - metrics.BandPixels (VCMPPD and VMOVMSKPD, the lanes counted by a
//     16-entry table, not POPCNT);
//   - grid.CField.AccumAbs2 and sim.ImagingGrid.Fold's paired sum
//     (VINSERTF128, VHADDPD);
//   - fft's weighted bit-reversed fill (VMOVDDUP, VINSERTF128).
//
// It is AVX, read once; each kernel reads it at every call, so a test
// clears it to hold all of them to their Go loops at once.
var PixelAVX = AVX
