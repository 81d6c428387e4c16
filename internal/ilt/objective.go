package ilt

import (
	"context"
	"fmt"
	"math"

	"mosaic/internal/fft"
	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/metrics"
	"mosaic/internal/obs"
	"mosaic/internal/par"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
)

// focusModel bundles the process corners of one focus plane with the kernel
// stack the descent loop images them through: either the single Eq. 21
// combined kernel or the top-GradKernels SOCS kernels with weights
// renormalized to unit open-frame intensity (so the resist threshold keeps
// its meaning under truncation). The corners of a plane differ only in
// dose, which enters at the resist step, so they share everything here.
type focusModel struct {
	sim.FocusGroup                 // Members index the process corner list; 0 is the nominal condition
	doses          []float64       // dose of each member
	ig             sim.ImagingGrid // grid the kernel fields live on; ig.K is the frequency block half-width
	freqs          []*grid.CField
	weights        []float64
}

// buildModels resolves the gradient kernel stack of every focus plane of
// the process corner set. The builds are independent (the kernel cache is
// single-flight per defocus), so cold-cache construction overlaps across
// planes.
func (o *Optimizer) buildModels() ([]focusModel, error) {
	corners := o.corners()
	groups := sim.FocusGroups(corners)
	models := make([]focusModel, len(groups))
	errs := make([]error, len(groups))
	par.For(len(groups), func(i int) {
		models[i], errs[i] = o.buildFocusModel(corners, groups[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return models, nil
}

// buildFocusModel resolves the gradient kernel stack for one focus group
// of corners.
func (o *Optimizer) buildFocusModel(corners []sim.Corner, g sim.FocusGroup) (focusModel, error) {
	ks, err := o.Sim.Kernels(g.Lead.DefocusNM)
	if err != nil {
		return focusModel{}, err
	}
	m := focusModel{FocusGroup: g, ig: sim.NewImagingGrid(o.Sim.Cfg.GridSize, ks.K)}
	for _, ci := range g.Members {
		m.doses = append(m.doses, corners[ci].Dose)
	}
	if o.Cfg.GradKernels <= 0 {
		m.freqs = []*grid.CField{ks.Combined()}
		m.weights = []float64{1}
		return m, nil
	}
	n := o.Cfg.GradKernels
	if n > len(ks.Freqs) {
		n = len(ks.Freqs)
	}
	m.freqs = ks.Freqs[:n]
	// Renormalize the truncated stack to unit open-frame intensity.
	dc := 0.0
	for i := 0; i < n; i++ {
		v := ks.Freqs[i].At(ks.K, ks.K)
		dc += ks.Weights[i] * (real(v)*real(v) + imag(v)*imag(v))
	}
	if dc <= 0 {
		return focusModel{}, fmt.Errorf("ilt: truncated kernel stack has zero open-frame intensity")
	}
	m.weights = make([]float64, n)
	for i := 0; i < n; i++ {
		m.weights[i] = ks.Weights[i] / dc
	}
	return m, nil
}

// focusState is one focus plane's share of an iteration for the current
// mask: its forward state and, in a descent step, its adjoint band blocks.
type focusState struct {
	model  focusModel
	fields []*grid.CField // A_k = M conv h_k on the imaging grid, one per gradient kernel
	i      *grid.Field    // aerial intensity (before dose) on the mask grid
	blks   []*grid.CField // adjoint band block per kernel; nil when no corner of the plane is live
}

// iterState is everything one iteration computes from the current mask.
// Every grid buffer it holds comes from the workspace pool; release
// returns them once the iteration is done with the state.
type iterState struct {
	specBand *grid.CField // band-limited FFT of the current mask
	planes   []focusState
	z        []*grid.Field // sigmoid printed pattern per corner (Eq. 4, dose applied), in corner-list order
	pvb      []float64     // F_pvb term per corner; slot 0, the nominal, stays 0
	epeW     *grid.Field   // exact mode: dF_epe/dD per pixel (weight-map form of Eq. 14)

	printed  []*grid.Field // descent step: hard print per corner, for the proxy PV band
	proxyEPE int           // descent step: EPE violations on the nominal aerial image

	objective float64
	fTarget   float64
	fPvb      float64
}

// release returns every pooled buffer held by the state to the workspace
// pool. The state must not be used afterwards.
func (st *iterState) release() {
	if st.specBand != nil {
		grid.PutC(st.specBand)
		st.specBand = nil
	}
	for i := range st.planes {
		fs := &st.planes[i]
		for _, f := range fs.fields {
			grid.PutC(f)
		}
		fs.fields = nil
		for _, b := range fs.blks {
			grid.PutC(b)
		}
		fs.blks = nil
		if fs.i != nil {
			grid.Put(fs.i)
			fs.i = nil
		}
	}
	for _, fs := range [][]*grid.Field{st.z, st.printed} {
		for i, f := range fs {
			if f != nil {
				grid.Put(f)
				fs[i] = nil
			}
		}
	}
	if st.epeW != nil {
		grid.Put(st.epeW)
		st.epeW = nil
	}
}

// evalState runs one task per focus plane and evaluates the objective of
// the configured mode. A plane's task images it, prints its corners at
// their doses and computes its objective terms; with adjoint set (a
// descent step, not the warm-start probe) it also runs the plane's adjoint
// products into its own band blocks and makes its proxy prints. The planes
// share only the read-only mask spectrum and each task writes its own
// slots, so they run concurrently; every sum — the SOCS one inside Image,
// the corner terms below, the band blocks in gradient — is folded serially
// and in index order, so the bits do not depend on the core count.
func (o *Optimizer) evalState(mask *grid.Field, models []focusModel, target *grid.Field, samples []geom.Sample, adjoint bool) *iterState {
	// All models share the optics configuration, hence the same frequency
	// block half-width.
	st := &iterState{specBand: o.Sim.SpectrumBand(mask, models[0].ig.K)}
	st.planes = make([]focusState, len(models))
	corners := 0
	for _, m := range models {
		corners += len(m.Members)
	}
	st.z = make([]*grid.Field, corners)
	st.pvb = make([]float64, corners)
	if adjoint {
		st.printed = make([]*grid.Field, corners)
	}
	par.For(len(models), func(mi int) {
		st.planes[mi] = o.plane(st, models[mi], mask, target, samples, adjoint)
	})

	for _, f := range st.pvb[1:] {
		st.fPvb += f
	}
	st.objective = st.fTarget + o.Cfg.Beta*st.fPvb
	return st
}

// plane is the task of one focus plane in evalState. The plane holding
// corner 0, the nominal condition, owns the design-target term, the EPE
// weight map and the proxy violation count.
func (o *Optimizer) plane(st *iterState, m focusModel, mask, target *grid.Field, samples []geom.Sample, adjoint bool) focusState {
	_, fsp := obs.StartSpan(context.Background(), obs.IltForward[m.Lead.SpanLabel()])
	fs := focusState{model: m}
	fs.fields, fs.i = m.ig.Image(st.specBand, m.freqs, m.weights)
	for j, ci := range m.Members {
		st.z[ci] = o.Sim.Resist.PrintSigmoidInto(grid.Get(mask.W, mask.H), fs.i, m.doses[j])
	}
	fsp.End()

	for _, ci := range m.Members {
		switch {
		case ci > 0:
			st.pvb[ci] = o.pvbTerm(st.z[ci], target)
		case o.Cfg.Mode == ModeFast:
			st.fTarget = o.idObjective(st.z[0], target)
		case o.Cfg.Mode == ModeExact:
			st.fTarget, st.epeW = o.epeObjective(st.z[0], target, samples)
		}
	}
	if !adjoint {
		return fs
	}
	fs.blks = o.adjoint(st, fs, target)

	// Proxy metrics (see proxyMetrics): hard prints of the plane's corners
	// and, on the nominal plane, the EPE violations of its aerial image.
	px := o.Sim.Cfg.PixelNM
	for j, ci := range m.Members {
		st.printed[ci] = o.Sim.Resist.PrintInto(grid.Get(fs.i.W, fs.i.H), fs.i, m.doses[j])
		if ci == 0 {
			res := metrics.MeasureEPE(fs.i, 1, o.Sim.Resist.Threshold, px, samples, o.metricParams())
			st.proxyEPE = metrics.CountViolations(res)
		}
	}
	return fs
}

// idObjective evaluates F_id = sum (Z_nom - Z_t)^gamma (Eq. 16).
func (o *Optimizer) idObjective(z, target *grid.Field) float64 {
	g := int(o.Cfg.Gamma)
	s := 0.0
	for i, v := range z.Data {
		s += ipow(v-target.Data[i], g)
	}
	return s
}

// pvbTerm evaluates one corner's contribution to F_pvb = sum (Z_k - Z_t)^2
// (Eq. 18).
func (o *Optimizer) pvbTerm(z, target *grid.Field) float64 {
	s := 0.0
	for i, v := range z.Data {
		d := v - target.Data[i]
		s += d * d
	}
	return s
}

// thetaEPE is the steepness of the EPE-violation sigmoid (Eq. 11), paper: 2.
const thetaEPE = 2.0

// epeObjective evaluates F_epe (Eq. 12) and simultaneously builds the
// per-pixel weight map used by its gradient.
//
// Paper formulation: at each sample s, Dsum_s sums the squared image
// difference D = (Z_nom - Z_t)^2 over a window of +/-th_epe along the edge
// normal (Eq. 9); the violation indicator is relaxed to
// sig(theta_epe * (Dsum_s - w)) where w is th_epe expressed in pixels — a
// printed edge displaced by exactly th_epe contributes ~w to Dsum (Eq. 11).
// F_epe = sum_s sig(...) over the HS and VS sample sets.
//
// Gradient (Eq. 13-15): by the chain rule,
//
//	dF/dD(p) = sum_{s : p in win(s)} theta_epe * g_s * (1 - g_s) =: W(p)
//	dF/dM    = sum_p W(p) * dD(p)/dM
//
// so the closed form of Eq. 14 reduces to the standard quadratic
// image-difference gradient weighted per pixel by W, which adjoint
// applies. th_epe is the scorer's (metrics.DefaultParams), so the relaxed
// count and the proxy count of proxyMetrics judge the same violation.
func (o *Optimizer) epeObjective(z, target *grid.Field, samples []geom.Sample) (float64, *grid.Field) {
	px := o.Sim.Cfg.PixelNM
	w := int(math.Round(metrics.DefaultParams().EPEThresholdNM / px))
	if w < 1 {
		w = 1
	}
	n := z.W
	weights := grid.Get(z.W, z.H).Zero() // released via iterState.release
	f := 0.0
	for _, s := range samples {
		sx := clampInt(int(s.Pt.X/px), 0, n-1)
		sy := clampInt(int(s.Pt.Y/px), 0, n-1)
		dsum := 0.0
		if s.Horizontal {
			// Horizontal edge: the printed edge moves vertically; scan rows.
			for dy := -w; dy <= w; dy++ {
				y := sy + dy
				if y < 0 || y >= n {
					continue
				}
				d := z.At(sx, y) - target.At(sx, y)
				dsum += d * d
			}
		} else {
			for dx := -w; dx <= w; dx++ {
				x := sx + dx
				if x < 0 || x >= n {
					continue
				}
				d := z.At(x, sy) - target.At(x, sy)
				dsum += d * d
			}
		}
		g := resist.Sig(dsum, float64(w), thetaEPE)
		f += g
		dw := thetaEPE * g * (1 - g)
		if s.Horizontal {
			for dy := -w; dy <= w; dy++ {
				y := sy + dy
				if y >= 0 && y < n {
					weights.Set(sx, y, weights.At(sx, y)+dw)
				}
			}
		} else {
			for dx := -w; dx <= w; dx++ {
				x := sx + dx
				if x >= 0 && x < n {
					weights.Set(x, sy, weights.At(x, sy)+dw)
				}
			}
		}
	}
	return f, weights
}

// proxyMetrics estimates the true Eq. 7 quantities from the intensities
// a descent step imaged through the descent's own kernel stack
// (GradKernels SOCS kernels; Eq. 21 only at GradKernels 0): EPE violations
// measured on the nominal aerial image and the PV-band area from hard
// prints at every corner, both made by the plane tasks of evalState. They
// cost no extra transform, and drive best-iterate selection (Alg. 1
// line 9).
func (o *Optimizer) proxyMetrics(st *iterState) (epe int, pvbNM2 float64) {
	return st.proxyEPE, metrics.PVBandArea(st.printed, o.Sim.Cfg.PixelNM)
}

// adjoint is one focus plane's share of the gradient dF/dM, run in the
// plane's task of a descent step.
//
// Every objective term has the form sum_p phi(Z_c(p)); backpropagation
// through the resist sigmoid (Eq. 4) and the coherent convolution gives
//
//	dF/dM = sum_c 2 * Re{ conj(H_c) corr [ W_c .* A_c ] }
//	W_c   = dF/dZ_c * theta_Z * Z_c(1-Z_c) * dose_c
//
// which is exactly the closed forms of Eq. 14/15 (exact mode, with the EPE
// weight map folded into dF/dZ) and Eq. 17 (fast mode). The correlation is
// evaluated in the frequency domain using the same band-limited kernels.
//
// The adjoint is linear in W_c, and the corners of one focus plane share
// A, H and the renormalized kernel weights, so their W_c are summed first
// and each plane costs one adjoint pass however many corners it holds. It
// returns the plane's band blocks, one per kernel, or nil when no corner of
// the plane contributes.
func (o *Optimizer) adjoint(st *iterState, fs focusState, target *grid.Field) []*grid.CField {
	cfg := o.Cfg
	thetaZ := o.Sim.Resist.ThetaZ
	m := fs.model
	n := m.ig.N

	// W = sum over the plane's corners of dF/dZ * theta_Z * Z(1-Z) * dose.
	w := grid.Get(n, n).Zero()
	live := false
	for j, ci := range m.Members {
		z, dose := st.z[ci].Data, m.doses[j]
		switch {
		case ci > 0 && cfg.Beta != 0:
			for i, zv := range z {
				w.Data[i] += cfg.Beta * 2 * (zv - target.Data[i]) * (thetaZ * zv * (1 - zv) * dose)
			}
		case ci == 0 && cfg.Mode == ModeFast:
			g := int(cfg.Gamma)
			for i, zv := range z {
				w.Data[i] += float64(g) * ipow(zv-target.Data[i], g-1) * (thetaZ * zv * (1 - zv) * dose)
			}
		case ci == 0 && cfg.Mode == ModeExact:
			for i, zv := range z {
				w.Data[i] += st.epeW.Data[i] * 2 * (zv - target.Data[i]) * (thetaZ * zv * (1 - zv) * dose)
			}
		default:
			continue
		}
		live = true
	}
	if !live {
		grid.Put(w)
		return nil
	}

	// Adjoint pass, on the imaging grid: W is carried there once by the
	// transpose of the forward interpolation, and each kernel contributes
	//   2*w_ki * Re{ IFFT( conj(Kf_ki) . FFT(W .* A_ki) ) }
	// The inverse transform is linear, so the per-kernel band blocks
	// accumulate in the frequency domain (gradient folds them) and ONE
	// mask-grid inverse per iteration replaces one per kernel and plane.
	// The kernels map in parallel, each into its own band block.
	nc, bw := m.ig.Nc, 2*m.ig.K+1
	wc := m.ig.Restrict(w)
	blks := make([]*grid.CField, len(m.freqs))
	par.For(len(m.freqs), func(ki int) {
		term := grid.GetC(nc, nc)
		for i, av := range fs.fields[ki].Data {
			term.Data[i] = complex(real(av)*wc.Data[i], imag(av)*wc.Data[i])
		}
		blk := grid.GetC(bw, bw)
		fft.ForwardBandLimited(term, m.ig.K, blk) // term becomes scratch
		grid.PutC(term)
		scale := complex(2*m.weights[ki], 0)
		for i, kv := range m.freqs[ki].Data {
			blk.Data[i] = blk.Data[i] * complex(real(kv), -imag(kv)) * scale
		}
		blks[ki] = blk
	})
	grid.Put(wc)
	return blks
}

// gradient computes dF/dM for a descent step's state (before the Eq. 8
// chain through the mask relaxation, which the caller applies): it folds
// the planes' adjoint band blocks serially, in plane then kernel order, and
// runs the one mask-grid inverse of the iteration.
func (o *Optimizer) gradient(st *iterState, n int) *grid.Field {
	// Every model shares the optics, hence the block size.
	bw := 2*st.planes[0].model.ig.K + 1
	gradBlk := grid.GetC(bw, bw).Zero()
	for i := range st.planes {
		fs := &st.planes[i]
		for _, blk := range fs.blks {
			gradBlk.AddC(blk)
			grid.PutC(blk)
		}
		fs.blks = nil
	}
	// The returned gradient comes from the workspace pool; runRaster
	// releases it at the end of the iteration.
	grad := grid.Get(n, n)
	fft.InverseBandLimitedReal(gradBlk, n, grad)
	grid.PutC(gradBlk)
	return grad
}

// ipow computes x^k for small non-negative integer k.
func ipow(x float64, k int) float64 {
	r := 1.0
	for ; k > 0; k-- {
		r *= x
	}
	return r
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
