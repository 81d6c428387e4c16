package fft

// The AVX moves between fields and transform lines, in lines_amd64.s.

// fillAVX is weightedFill's kernel: per x < n/2, src[x]*w[x] and
// src[x+n/2]*w[x+n/2] (one VMULPD, each part times its weight) stored
// together at row[rev[x]]. row, src, w and rev are all n long, n a power of
// two >= 2.
//
//go:noescape
func fillAVX(row, src []complex128, w []float64, rev []int)

// storeAVX is storePairs' kernel for a full block of four lines: two rows
// a step, n even, dst holding (n-1)*n+8 entries and lines 4n.
//
//go:noescape
func storeAVX(dst []float64, lines []complex128, n int)
