package arbor

import (
	"context"
	"fmt"
	"math"

	"repro/internal/graph"
)

// Plan describes one candidate parameterization considered by the adaptive
// algorithm of Corollary 5.5.
type Plan struct {
	// Name identifies the algorithm ("thm5.2", "thm5.3", "thm5.4/x=3", …).
	Name string
	// X is the recursion depth (0 for the non-recursive algorithms).
	X int
	// Q is the threshold multiplier.
	Q float64
	// Palette is the declared palette bound of this plan.
	Palette int64
}

// Plans enumerates the candidate parameterizations for a graph with
// maximum degree delta and arboricity bound a at multiplier q, in the
// spirit of Corollary 5.5: Theorem 5.2, Theorem 5.3, and Theorem 5.4 with
// depths up to ~log(q·a) (beyond which the group sizes bottom out at 2 and
// nothing improves). q is resolved as Options.Q is: 0 selects 3, and
// values below 2.05 are clamped up. A palette that overflows int64 is
// listed saturated at math.MaxInt64.
func Plans(delta, a int, q float64) []Plan {
	q = Options{Q: q}.q()
	plans := []Plan{
		{Name: "thm5.2", X: 1, Q: q, Palette: Palette52(delta, a, q)},
		{Name: "thm5.3", X: 1, Q: q, Palette: Palette53(delta, a, q)},
	}
	theta := Threshold(a, q)
	maxX := 2
	if theta >= 2 {
		maxX = int(math.Log2(float64(theta))) + 2
	}
	if capX := int(math.Log2(float64(delta + 1))); maxX > capX {
		maxX = capX
	}
	for x := 2; x <= maxX; x++ {
		plans = append(plans, Plan{
			Name:    fmt.Sprintf("thm5.4/x=%d", x),
			X:       x,
			Q:       q,
			Palette: Palette54(delta, a, q, x),
		})
	}
	return plans
}

// BestPlan returns the candidate with the smallest declared palette,
// breaking ties toward smaller recursion depth (fewer rounds).
func BestPlan(delta, a int, q float64) Plan {
	plans := Plans(delta, a, q)
	best := plans[0]
	for _, p := range plans[1:] {
		if p.Palette < best.Palette || (p.Palette == best.Palette && p.X < best.X) {
			best = p
		}
	}
	return best
}

// ColorAdaptive implements the Corollary 5.5 variant: it selects, from the
// Section 5 family, the parameterization with the smallest declared palette
// for the given Δ, a and opt's q — which for a polynomially below Δ yields
// Δ·(1+o(1)) colors — and runs it. The chosen plan is returned alongside
// the coloring.
func ColorAdaptive(ctx context.Context, g *graph.Graph, a int, opt Options) (*Result, Plan, error) {
	delta, err := opt.delta(g)
	if err != nil {
		return nil, Plan{}, err
	}
	plan := BestPlan(delta, a, opt.q())
	var res *Result
	switch plan.Name {
	case "thm5.2":
		res, err = ColorHPartition(ctx, g, a, opt)
	case "thm5.3":
		res, err = ColorSqrt(ctx, g, a, opt)
	default:
		res, err = ColorRecursive(ctx, g, a, plan.X, opt)
	}
	if err != nil {
		return nil, plan, err
	}
	return res, plan, nil
}
