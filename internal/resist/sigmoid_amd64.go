package resist

// sigmoidAVX2 is SigmoidInto's kernel, in sigmoid_amd64.s: it writes
// dst[i] = 1/(1+exp(nt*(x[i]*s - t))) four at a time, exp being math.Exp's
// AVX+FMA sequence, up to the first block of four it cannot finish exactly
// like math.Exp (an argument outside [-708, 709] or NaN) or the short
// tail, and returns the count written.
//
//go:noescape
func sigmoidAVX2(dst, x []float64, s, t, nt float64) int
