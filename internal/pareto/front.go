package pareto

// ExactFront returns the indices of candidates on the exact (non-grid)
// Pareto front in raw objective space: no other candidate is ≤ in every
// objective and < in at least one.
func ExactFront(cands []Candidate) []int {
	var front []int
	for i := range cands {
		dominated := false
		for j := range cands {
			if i != j && dominates(cands[j], cands[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	return front
}

// dominates reports whether a dominates b in raw objective space.
func dominates(a, b Candidate) bool {
	strict := false
	for l := 0; l < 3; l++ {
		av, bv := a.objective(l), b.objective(l)
		if av > bv {
			return false
		}
		if av < bv {
			strict = true
		}
	}
	return strict
}
