package trace

import "strconv"

// Log is the trace-to-log adapter: a Recorder that renders events as
// human-readable progress lines through a printf-style function such as
// log.Printf. It is the only progress-logging path of the solvers — they
// emit trace events, never log lines — so what `sdpfloor -v` prints is
// derived from the same stream `-trace` writes.
//
// The policy is fixed: every "start" and "final" event, and the "iter"
// events of the outer loops only ("core", "hier", "portfolio"). The inner
// solvers' per-iteration events (ipm, admm, lbfgs, sa, ...) number in the
// thousands per solve and stay in the trace. A line reads
//
//	solver[run] kind iter status: key=value ...
//
// where "[run]" appears only on run-scoped events, the iteration index is
// omitted on "start" events, the status appears only on "final" events,
// and field values are printed with six significant digits. Log is safe
// for concurrent use when the function is (log.Printf is). Log stamps no
// timestamp of its own: the printing function adds one if it wants one.
type Log func(format string, args ...any)

// Enabled reports true.
func (Log) Enabled() bool { return true }

// Record prints the event's line when the policy selects it.
func (l Log) Record(ev Event) {
	if logged(ev) {
		l("%s", appendLogLine(nil, ev))
	}
}

// logged is the fixed selection policy of Log.
func logged(ev Event) bool {
	switch ev.Kind {
	case KindStart, KindFinal:
		return true
	case KindIter:
		switch ev.Solver {
		case "core", "hier", "portfolio":
			return true
		}
	}
	return false
}

// appendLogLine appends the human-readable form of ev to b.
func appendLogLine(b []byte, ev Event) []byte {
	b = append(b, ev.Solver...)
	if ev.Run != "" {
		b = append(b, '[')
		b = append(b, ev.Run...)
		b = append(b, ']')
	}
	b = append(b, ' ')
	b = append(b, ev.Kind...)
	if ev.Kind != KindStart {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(ev.Iter), 10)
	}
	if ev.Status != "" {
		b = append(b, ' ')
		b = append(b, ev.Status...)
	}
	for i, f := range ev.Fields {
		if i == 0 {
			b = append(b, ':')
		}
		b = append(b, ' ')
		b = append(b, f.Key...)
		b = append(b, '=')
		b = strconv.AppendFloat(b, f.Val, 'g', 6, 64)
	}
	return b
}
