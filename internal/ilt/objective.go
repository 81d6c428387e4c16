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
// its meaning under truncation) — paired at best focus, where its real rank
// allows (sim.Stack). The corners of a plane differ only in dose, which
// enters at the resist step, so they share everything here.
type focusModel struct {
	sim.FocusGroup                 // Members index the process corner list; 0 is the nominal condition
	doses          []float64       // dose of each member
	ig             sim.ImagingGrid // grid the unit fields live on; ig.K is the frequency block half-width
	stack          *sim.Stack
}

// buildModels resolves the gradient kernel stack of every focus plane of
// the process corner set. A run through a tile plan or a mosaic.Setup
// finds both planes built (sim.BuildPlanes) and the stacks memoised, so
// each lookup is a cache hit and a plain loop is all it takes.
func (o *Optimizer) buildModels() ([]focusModel, error) {
	corners := o.corners()
	groups := sim.FocusGroups(corners)
	models := make([]focusModel, len(groups))
	for i, g := range groups {
		m, err := o.buildFocusModel(corners, g)
		if err != nil {
			return nil, err
		}
		models[i] = m
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
	if o.Cfg.GradKernels == 0 {
		m.stack = sim.CombinedStack(ks)
		return m, nil
	}
	n := min(o.Cfg.GradKernels, len(ks.Freqs))
	// Renormalize the truncated stack to unit open-frame intensity.
	dc := 0.0
	for i := 0; i < n; i++ {
		v := ks.Freqs[i].At(ks.K, ks.K)
		dc += ks.Weights[i] * (real(v)*real(v) + imag(v)*imag(v))
	}
	if dc <= 0 {
		return focusModel{}, fmt.Errorf("ilt: truncated kernel stack has zero open-frame intensity")
	}
	m.stack = sim.SOCSStack(ks, n).Scaled(dc)
	return m, nil
}

// focusState is one focus plane's share of an iteration for the current
// mask: its forward state and, in a descent step, its adjoint band blocks.
type focusState struct {
	model  focusModel
	fields []*grid.CField // the field of each transform unit of model.stack, on the imaging grid
	i      *grid.Field    // aerial intensity (before dose) on the mask grid
	blks   []*grid.CField // adjoint band block per unit; nil when no corner of the plane is live
}

// iterState is everything one iteration computes from the current mask.
// Every grid buffer it holds comes from the workspace pool; release
// returns them once the iteration is done with the state.
type iterState struct {
	specBand *grid.CField // band-limited FFT of the current mask
	planes   []focusState
	units    []planeIndex  // every transform unit, plane by plane
	z        []*grid.Field // sigmoid printed pattern per corner (Eq. 4, dose applied), in corner-list order
	pvb      []float64     // F_pvb term per corner; slot 0, the nominal, stays 0
	epeW     *grid.Field   // exact mode: dF_epe/dD per pixel (weight-map form of Eq. 14)

	bandPx   int // descent step: pixels whose hard prints disagree across the corners (the proxy PV band)
	proxyEPE int // descent step: EPE violations on the nominal aerial image

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
	for i, f := range st.z {
		if f != nil {
			grid.Put(f)
			st.z[i] = nil
		}
	}
	if st.epeW != nil {
		grid.Put(st.epeW)
		st.epeW = nil
	}
}

// evalState evaluates the objective of the configured mode for mask and,
// in a descent step (descent set; not the warm-start probe), the proxy
// metrics. It runs the forward three of an iteration's five task lists in
// turn, each parallel over outputs its tasks write alone:
//
//  1. the field of every transform unit of every plane, one list;
//  2. per plane, the fold of its fields and the interpolation to the mask
//     grid (sim.ImagingGrid.Fold);
//  3. per corner, the sigmoid print at its dose and its objective term and,
//     in a descent step, the nominal plane's proxy EPE count and the proxy
//     band count of each of the pixelBands row bands (cornerList).
//
// adjoint runs the other two. One list over all planes' units lets a paired
// best-focus plane, which has fewer units, share the cores with the others
// instead of finishing first and idling. Every sum — a plane's fold, the
// corner terms below, the band blocks in gradient — is folded serially and
// in index order, and the proxy counts are integers, so the bits do not
// depend on the core count.
func (o *Optimizer) evalState(mask *grid.Field, models []focusModel, target *grid.Field, samples []geom.Sample, descent bool) *iterState {
	// All models share the optics configuration, hence the same frequency
	// block half-width.
	st := &iterState{specBand: o.Sim.SpectrumBand(mask, models[0].ig.K)}
	st.planes = make([]focusState, len(models))
	for p, m := range models {
		st.planes[p] = focusState{model: m, fields: make([]*grid.CField, len(m.stack.Units()))}
		for u := range m.stack.Units() {
			st.units = append(st.units, planeIndex{p, u})
		}
	}

	par.For(len(st.units), func(i int) {
		fs, u := &st.planes[st.units[i].plane], st.units[i].i
		fs.fields[u] = fs.model.ig.Field(st.specBand, fs.model.stack.Units()[u])
	})
	par.For(len(models), func(p int) {
		fs := &st.planes[p]
		_, sp := obs.StartSpan(context.Background(), obs.IltForward[fs.model.Lead.SpanLabel()])
		fs.i = fs.model.ig.Fold(fs.model.stack, fs.fields)
		sp.End()
	})
	o.cornerList(st, target, samples, descent)
	return st
}

// adjoint runs the last two task lists of a descent step on evalState's
// state, filling the band blocks gradient folds:
//
//  4. per plane, its corners' summed sensitivity restricted to the imaging
//     grid;
//  5. the adjoint band block of every unit of every live plane, one list.
func (o *Optimizer) adjoint(st *iterState, target *grid.Field) {
	wcs := make([]*grid.Field, len(st.planes)) // each plane's sensitivity on the imaging grid, nil if not live
	par.For(len(st.planes), func(p int) {
		if wcs[p] = o.sensitivity(st, &st.planes[p], target); wcs[p] != nil {
			st.planes[p].blks = make([]*grid.CField, len(st.planes[p].fields))
		}
	})
	par.For(len(st.units), func(i int) {
		p, u := st.units[i].plane, st.units[i].i
		if fs := &st.planes[p]; wcs[p] != nil {
			fs.blks[u] = fs.model.ig.Adjoint(fs.model.stack, u, fs.fields[u], wcs[p])
		}
	})
	for _, wc := range wcs {
		if wc != nil {
			grid.Put(wc)
		}
	}
}

// planeIndex names the i-th unit or member of a focus plane.
type planeIndex struct{ plane, i int }

// cornerList is the third task list of evalState, run once every plane's
// intensity is on the mask grid: every corner's task (corner) and, in a
// descent step, after them, the proxy EPE count on the nominal plane and
// the proxy band count of each of the pixelBands row bands, which the
// corner tasks leave a core for (three corners on two cores). It sums the
// objective from the corner terms.
func (o *Optimizer) cornerList(st *iterState, target *grid.Field, samples []geom.Sample, descent bool) {
	corners := 0
	for _, fs := range st.planes {
		corners += len(fs.model.Members)
	}
	cornerOf := make([]planeIndex, corners) // plane and member of each corner
	for p, fs := range st.planes {
		for j, ci := range fs.model.Members {
			cornerOf[ci] = planeIndex{p, j}
		}
	}
	st.z = make([]*grid.Field, corners)
	st.pvb = make([]float64, corners)
	var exps []metrics.Exposure // descent step: every corner's intensity and dose, in corner order
	var counts []int            // descent step: the proxy band's pixels per row band
	proxy := 0                  // descent step: the proxy EPE task
	if descent {
		exps = make([]metrics.Exposure, corners)
		for ci, pj := range cornerOf {
			fs := &st.planes[pj.plane]
			exps[ci] = metrics.Exposure{I: fs.i.Data, Dose: fs.model.doses[pj.i]}
		}
		counts = make([]int, pixelBands)
		proxy = 1
	}
	par.For(corners+proxy+len(counts), func(t int) {
		switch {
		case t < corners:
			o.corner(st, t, &st.planes[cornerOf[t].plane], cornerOf[t].i, target, samples)
		case t < corners+proxy:
			// EPE violations on the nominal aerial image (see proxyMetrics).
			nominal := st.planes[cornerOf[0].plane].i
			res := metrics.MeasureEPE(nominal, 1, o.Sim.Resist.Threshold, o.Sim.Cfg.PixelNM, samples, metrics.DefaultParams())
			st.proxyEPE = metrics.CountViolations(res)
		default:
			lo, hi := band(t-corners-proxy, target.W)
			counts[t-corners-proxy] = metrics.BandPixels(o.Sim.Resist, exps, lo, hi)
		}
	})
	for _, c := range counts {
		st.bandPx += c
	}
	for _, f := range st.pvb[1:] {
		st.fPvb += f
	}
	st.objective = st.fTarget + o.Cfg.Beta*st.fPvb
}

// corner is the task of corner ci, member j of plane fs, in evalState: its
// sigmoid print and objective term. Corner 0, the nominal condition, owns
// the design-target term and the EPE weight map.
func (o *Optimizer) corner(st *iterState, ci int, fs *focusState, j int, target *grid.Field, samples []geom.Sample) {
	dose := fs.model.doses[j]
	st.z[ci] = o.Sim.Resist.PrintSigmoidInto(grid.Get(fs.i.W, fs.i.H), fs.i, dose)
	switch {
	case ci > 0:
		st.pvb[ci] = o.pvbTerm(st.z[ci], target)
	case o.Cfg.Mode == ModeFast:
		st.fTarget = o.idObjective(st.z[0], target)
	case o.Cfg.Mode == ModeExact:
		st.fTarget, st.epeW = o.epeObjective(st.z[0], target, samples)
	}
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
// measured on the nominal aerial image and the PV-band area of the hard
// prints at every corner, both counted in evalState's corner list. They
// cost no extra transform, and drive best-iterate selection (Alg. 1
// line 9).
func (o *Optimizer) proxyMetrics(st *iterState) (epe int, pvbNM2 float64) {
	px := o.Sim.Cfg.PixelNM
	return st.proxyEPE, float64(st.bandPx) * px * px
}

// sensitivity is one focus plane's share of the gradient dF/dM up to the
// kernels, the plane's task in the fourth list of evalState.
//
// Every objective term has the form sum_p phi(Z_c(p)); backpropagation
// through the resist sigmoid (Eq. 4) and the coherent convolution gives
//
//	dF/dM = sum_c 2 * Re{ conj(H_c) corr [ W_c .* A_c ] }
//	W_c   = dF/dZ_c * theta_Z * Z_c(1-Z_c) * dose_c
//
// which is exactly the closed forms of Eq. 14/15 (exact mode, with the EPE
// weight map folded into dF/dZ) and Eq. 17 (fast mode). The correlation is
// evaluated in the frequency domain using the same band-limited kernels,
// one sim.ImagingGrid.Adjoint per transform unit.
//
// The adjoint is linear in W_c, and the corners of one focus plane share
// A, H and the renormalized kernel weights, so their W_c are summed first
// and each plane costs one adjoint pass however many corners it holds. It
// returns the summed W carried to the imaging grid once, by the transpose
// of the forward interpolation, or nil when no corner of the plane
// contributes.
func (o *Optimizer) sensitivity(st *iterState, fs *focusState, target *grid.Field) *grid.Field {
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
	return m.ig.Restrict(w)
}

// gradient computes dF/dM for a descent step's state (before the Eq. 8
// chain through the mask relaxation, which the caller applies): it folds
// the planes' adjoint band blocks serially, in plane then unit order, and
// runs the one mask-grid inverse of the iteration. The inverse's real part
// is the transform of the summed blocks' Hermitian part, which untangles
// the paired units (sim.ImagingGrid.Adjoint). The inverse transform is
// linear, so the per-unit blocks accumulate in the frequency domain and one
// mask-grid inverse per iteration replaces one per unit and plane.
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

// chainRule chains a descent step's gradient dF/dM through the mask
// relaxation, dM/dP = theta_M * M * (1-M), in place, and returns the
// result's RMS and extremes from the same pass. It keeps the serial
// summation order of grid.Field.RMS and compares extremes as
// grid.Field.MinMax does, so its bits, ±0 and NaN included, are theirs.
func chainRule(grad, mask *grid.Field) (rms, lo, hi float64) {
	g, m := grad.Data, mask.Data
	mv := m[0]
	v := g[0] * thetaM * mv * (1 - mv)
	g[0] = v
	s := v * v
	lo, hi = v, v
	for i := 1; i < len(g); i++ {
		mv := m[i]
		v := g[i] * thetaM * mv * (1 - mv)
		g[i] = v
		s += v * v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return math.Sqrt(s / float64(len(g))), lo, hi
}

// ipow computes x^k for small non-negative integer k. The exponents the
// objective uses (gamma = 4 and its derivative's 3) are unrolled in the
// loop's own multiply order, ((x*x)*x)*x: its first product, 1*x, is x
// exactly.
func ipow(x float64, k int) float64 {
	switch k {
	case 3:
		return x * x * x
	case 4:
		return x * x * x * x
	}
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
