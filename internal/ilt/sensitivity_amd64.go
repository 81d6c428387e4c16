package ilt

// The kernels of the terms of W, in sensitivity_amd64.s. Each adds its
// term into w[:len(w)&^3], four pixels a step, and returns that count;
// z, t and epeW are at least as long as w.

// wBetaAVX adds c*(z-t) * (((thetaZ*z)*(1-z))*dose): wBeta's loop.
//
//go:noescape
func wBetaAVX(w, z, t []float64, c, thetaZ, dose float64) int

// wCubeAVX adds c*(((z-t)*(z-t))*(z-t)) * (((thetaZ*z)*(1-z))*dose):
// wFast's loop at gamma 4, c = 4.
//
//go:noescape
func wCubeAVX(w, z, t []float64, c, thetaZ, dose float64) int

// wEpeAVX adds (epeW*2)*(z-t) * (((thetaZ*z)*(1-z))*dose): wExact's loop.
//
//go:noescape
func wEpeAVX(w, z, t, epeW []float64, thetaZ, dose float64) int
