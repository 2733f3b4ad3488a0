package netlist

// LSEEval evaluates the log-sum-exp (LSE) smoothed HPWL and its gradient
// for one netlist many times over, as the legalizer's and the analytic
// placer's L-BFGS objectives do. Module m's coordinate on axis a (0 for x,
// 1 for y) is v[stride*m+a]: stride 3 for the legalizer's (x, y, width)
// variables, 2 for the analytic placer's (x, y).
//
// Per net and axis, over the pin coordinates c (module pins, then pads)
// with maximum cmax and minimum cmin, the smoothed span is
//
//	γ·(log Σ exp((c−cmax)/γ) + log Σ exp((cmin−c)/γ)) + (cmax − cmin),
//
// the shifted form that keeps every exponent ≤ 0. Eval returns Σ over nets
// of Weight × the spans of both axes, and adds Weight × (the pin's first
// exponential / the first sum − its second exponential / the second sum)
// to a module pin's gradient entry. A net without pins adds nothing.
//
// Per net, the 4·pins exponent arguments (both axes, both signs) go
// through one expInto call and the four sums through one logInto call;
// on amd64 those run packed AVX2 kernels that give math.Exp's and
// math.Log's bits (explog_amd64.go). Every sum, gradient entry and the
// total accumulate in the order of a per-axis scalar loop: module pins
// then pads, net by net, x before y. So Eval returns the bits, and adds
// the gradient bits, of that loop calling math.Exp and math.Log.
//
// The evaluator reads the netlist's nets and pads at every evaluation
// and keeps one net's scratch, sized at construction from the largest
// net: the netlist must not change while the evaluator is in use, and the
// evaluator is not safe for concurrent use.
type LSEEval struct {
	nl      *Netlist
	stride  int
	arg     []float64 // one net's exponent arguments, then their exponentials
	sum, lg [4]float64
}

// NewLSEEval builds the evaluator of nl for variables laid out with the
// given stride (at least 2). Its scratch fits the largest net, so Eval
// allocates nothing.
func NewLSEEval(nl *Netlist, stride int) *LSEEval {
	if stride < 2 {
		panic("netlist: LSE stride below 2")
	}
	maxPins := 0
	for _, e := range nl.Nets {
		maxPins = max(maxPins, len(e.Modules)+len(e.Pads))
	}
	return &LSEEval{nl: nl, stride: stride, arg: make([]float64, 4*maxPins)}
}

// Eval returns the LSE-smoothed HPWL of the positions v with smoothing
// width gamma and adds its gradient to g, which it does not zero. Only the
// position entries of g (axis 0 and 1 of each module) change.
//
//sdpvet:hotpath
func (ev *LSEEval) Eval(v []float64, gamma float64, g []float64) float64 {
	if len(v) != ev.stride*ev.nl.N() {
		panic("netlist: LSE position count mismatch")
	}
	pads := ev.nl.Pads
	total := 0.0
	for k := range ev.nl.Nets {
		e := &ev.nl.Nets[k]
		mods := len(e.Modules)
		pins := mods + len(e.Pads)
		if pins == 0 {
			continue
		}
		// arg holds, per axis, the pins' arguments (c−cmax)/γ then
		// (cmin−c)/γ, and the first half starts out as the coordinates.
		// The exponentials replace the arguments in place.
		arg := ev.arg[:4*pins]
		var cmax, cmin [2]float64
		for a := 0; a < 2; a++ {
			pos, neg := arg[2*a*pins:(2*a+1)*pins], arg[(2*a+1)*pins:(2*a+2)*pins]
			for i, m := range e.Modules {
				pos[i] = v[ev.stride*m+a]
			}
			for i, p := range e.Pads {
				if a == 0 {
					pos[mods+i] = pads[p].Pos.X
				} else {
					pos[mods+i] = pads[p].Pos.Y
				}
			}
			hi, lo := pos[0], pos[0]
			for _, c := range pos[1:] {
				if c > hi {
					hi = c
				}
				if c < lo {
					lo = c
				}
			}
			for i, c := range pos {
				neg[i] = (lo - c) / gamma
				pos[i] = (c - hi) / gamma
			}
			cmax[a], cmin[a] = hi, lo
		}
		expInto(arg, arg)
		for j := range ev.sum {
			s := 0.0
			for _, x := range arg[j*pins : (j+1)*pins] {
				s += x
			}
			ev.sum[j] = s
		}
		logInto(ev.lg[:], ev.sum[:])
		for a := 0; a < 2; a++ {
			sp, sn := ev.sum[2*a], ev.sum[2*a+1]
			ep, en := arg[2*a*pins:], arg[(2*a+1)*pins:]
			for i, m := range e.Modules {
				g[ev.stride*m+a] += e.Weight * (ep[i]/sp - en[i]/sn)
			}
			total += e.Weight * (gamma*(ev.lg[2*a]+ev.lg[2*a+1]) + (cmax[a] - cmin[a]))
		}
	}
	return total
}
