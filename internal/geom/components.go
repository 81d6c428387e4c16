package geom

import "mosaic/internal/grid"

// Components labels 4-connected components of the nonzero pixels of f.
// It returns a label field (0 = background, 1..n = component id) and the
// component count.
func Components(f *grid.Field) (labels []int32, n int) {
	labels = make([]int32, len(f.Data))
	var queue []int
	for start, v := range f.Data {
		if v == 0 || labels[start] != 0 {
			continue
		}
		n++
		id := int32(n)
		labels[start] = id
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			i := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			x, y := i%f.W, i/f.W
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || nx >= f.W || ny < 0 || ny >= f.H {
					continue
				}
				j := ny*f.W + nx
				if f.Data[j] != 0 && labels[j] == 0 {
					labels[j] = id
					queue = append(queue, j)
				}
			}
		}
	}
	return labels, n
}

// CountHoles returns the number of background regions of f that do not
// touch the grid border, i.e. zero-regions fully enclosed by features.
// These are the "holes in the final contour" the contest's shape-violation
// term penalizes.
func CountHoles(f *grid.Field) int {
	inv := grid.NewLike(f)
	for i, v := range f.Data {
		if v == 0 {
			inv.Data[i] = 1
		}
	}
	labels, n := Components(inv)
	touchesBorder := make([]bool, n+1)
	for x := 0; x < f.W; x++ {
		if l := labels[x]; l != 0 {
			touchesBorder[l] = true
		}
		if l := labels[(f.H-1)*f.W+x]; l != 0 {
			touchesBorder[l] = true
		}
	}
	for y := 0; y < f.H; y++ {
		if l := labels[y*f.W]; l != 0 {
			touchesBorder[l] = true
		}
		if l := labels[y*f.W+f.W-1]; l != 0 {
			touchesBorder[l] = true
		}
	}
	holes := 0
	for id := 1; id <= n; id++ {
		if !touchesBorder[id] {
			holes++
		}
	}
	return holes
}
