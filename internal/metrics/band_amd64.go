package metrics

import "unsafe"

// bandAVX is BandPixels' kernel, in band_amd64.s: the band count over
// [lo, hi), hi-lo a multiple of 4, every exposure holding pixel hi-1. Per
// four pixels it compares each I*dose with th as Go's > does (VCMPPD
// GT_OQ, false on NaN), XORs each exposure's lanes with the nominal's, ORs
// them and counts the lanes set. It reads an Exposure as 32 bytes with
// Dose at 24, which the array sizes below hold at compile time.
//
//go:noescape
func bandAVX(exps []Exposure, lo, hi int, th float64) int

var (
	_ [32 - unsafe.Sizeof(Exposure{})]byte
	_ [unsafe.Sizeof(Exposure{}) - 32]byte
	_ [24 - unsafe.Offsetof(Exposure{}.Dose)]byte
	_ [unsafe.Offsetof(Exposure{}.Dose) - 24]byte
)
