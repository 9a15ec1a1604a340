package track

import "math"

// Hungarian solves the square assignment problem: given an n x n cost
// matrix it returns assign[row] = column minimizing total cost. The
// implementation is the O(n^3) potentials (Jonker-style) formulation.
//
// Rectangular problems are handled by the caller padding with a large
// cost.
func Hungarian(cost [][]float64) []int {
	n := len(cost)
	if n == 0 {
		return nil
	}
	var h hungarian
	sq := h.square(n)
	for i, row := range cost {
		copy(sq[i*n:(i+1)*n], row)
	}
	return append([]int(nil), h.solve(n)...)
}

// hungarian is the reusable working set of one assignment solve: the
// row-major square cost matrix, the potentials and the result, kept by
// the tracker so a steady-state frame solves without allocating.
type hungarian struct {
	cost, u, v, minv []float64
	p, way, assign   []int
	used             []bool
}

// square returns the n x n cost matrix to fill, row-major.
func (h *hungarian) square(n int) []float64 {
	h.cost = grow(h.cost, n*n)
	return h.cost
}

// grow returns s resized to n entries, reusing its backing array when
// it is large enough. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// solve assigns over the n x n matrix square filled. The result aliases
// h and is valid until the next solve.
func (h *hungarian) solve(n int) []int {
	const inf = math.MaxFloat64
	cost := h.cost
	// 1-indexed potentials algorithm.
	u, v := grow(h.u, n+1), grow(h.v, n+1)
	p, way := grow(h.p, n+1), grow(h.way, n+1) // p[col] = row assigned to col
	minv, used := grow(h.minv, n+1), grow(h.used, n+1)
	h.u, h.v, h.p, h.way, h.minv, h.used = u, v, p, way, minv, used
	clear(u)
	clear(v)
	clear(p)
	clear(way)

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		clear(used)
		for j := range minv {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost[(i0-1)*n+j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	h.assign = grow(h.assign, n)
	assign := h.assign
	clear(assign)
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			assign[p[j]-1] = j - 1
		}
	}
	return assign
}
