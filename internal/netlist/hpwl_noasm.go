//go:build !amd64 || race

package netlist

import "sdpfloor/internal/geom"

// Without the assembly kernel (other architectures, and -race builds,
// whose detector does not see loads made in assembly) the Go loop is the
// evaluator.
//
//sdpvet:hotpath
func (ev *HPWLEval) hpwl(centers []geom.Point) float64 {
	return ev.hpwlGo(centers)
}
