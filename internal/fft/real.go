package fft

// Real-input forward specialization.
//
// A length-n real sequence needs only a length-n/2 complex FFT: the even
// and odd samples pack into one complex vector z[j] = x[2j] + i*x[2j+1]
// (a decimation-in-time split), the half-length spectrum untangles into
// the even/odd-sample subspectra through conjugate symmetry, and one
// twiddled butterfly recombines them into the full n-point spectrum. That
// replaces the earlier two-rows-per-FFT packing in the band-limited real
// forward: one level fewer of butterflies per row, a twiddle table and
// working set half the size (the half-length transform stays cache
// resident on the 512 and 1024 grids), no cross-row coupling, and no
// per-pair scratch buffer.

// realForwardInto writes the forward FFT of the real row src (length n, a
// power of two >= 2) into dst (length n), overwriting it. It is equivalent
// to filling dst with complex(src[i], 0) and calling Forward(dst).
func realForwardInto(dst []complex128, src []float64, pn, ph *plan) {
	n := pn.n
	m := n / 2
	// Pack even/odd samples, in the half-length transform's bit-reversed
	// order, and run it in place.
	z := dst[:m]
	for j, r := range ph.rev {
		z[r] = complex(src[2*j], src[2*j+1])
	}
	butterflies(z, ph, false)
	// Untangle: with E/O the spectra of the even/odd samples,
	//   E[k] = (Z[k] + conj(Z[m-k]))/2
	//   O[k] = (Z[k] - conj(Z[m-k])) * -i/2
	//   X[k] = E[k] + w^k O[k],  X[k+m] = E[k] - w^k O[k]
	// processed as (k, m-k) pairs so every Z value is read before any X
	// overwrites it. Twiddles w^k = exp(-2*pi*i*k/n) are exactly pn's
	// forward table.
	w := pn.wFwd
	z0 := dst[0]
	dst[0] = complex(real(z0)+imag(z0), 0)
	dst[m] = complex(real(z0)-imag(z0), 0)
	for k := 1; 2*k < m; k++ {
		zk, zr := dst[k], dst[m-k]
		zrc := complex(real(zr), -imag(zr))
		e := (zk + zrc) * 0.5
		o := (zk - zrc) * complex(0, -0.5)
		t := w[k] * o
		dst[k] = e + t
		dst[k+m] = e - t
		// Mirror pair: E[m-k] = conj(E[k]), O[m-k] = conj(O[k]).
		ec := complex(real(e), -imag(e))
		oc := complex(real(o), -imag(o))
		t = w[m-k] * oc
		dst[m-k] = ec + t
		dst[n-k] = ec - t
	}
	if m >= 2 {
		// Self-paired middle bin k = m/2: E and O are the components of Z.
		zk := dst[m/2]
		e := complex(real(zk), 0)
		o := complex(imag(zk), 0)
		t := w[m/2] * o
		dst[m/2] = e + t
		dst[m/2+m] = e - t
	}
}
