package fft

// The AVX move between a field and a transform line, in lines_amd64.s.

// fillAVX is weightedFill's kernel: per x < n/2, src[x]*w[x] and
// src[x+n/2]*w[x+n/2] (one VMULPD, each part times its weight) stored
// together at row[rev[x]]. row, src, w and rev are all n long, n a power of
// two >= 2.
//
//go:noescape
func fillAVX(row, src []complex128, w []float64, rev []int)
