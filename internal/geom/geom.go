// Package geom provides the 2-D primitives used by the floorplanner: points,
// rectangles, bounding boxes, and distance computations.
package geom

import "math"

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p − q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns a*p.
func (p Point) Scale(a float64) Point { return Point{a * p.X, a * p.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// DistSq returns the squared Euclidean distance between p and q.
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Manhattan returns the L1 distance between p and q.
func (p Point) Manhattan(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// Rect is an axis-aligned rectangle described by its lower-left and
// upper-right corners.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRectCenter builds a rectangle from a center point and dimensions.
func NewRectCenter(c Point, w, h float64) Rect {
	return Rect{MinX: c.X - w/2, MinY: c.Y - h/2, MaxX: c.X + w/2, MaxY: c.Y + h/2}
}

// W returns the width of r.
func (r Rect) W() float64 { return r.MaxX - r.MinX }

// H returns the height of r.
func (r Rect) H() float64 { return r.MaxY - r.MinY }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.W() * r.H() }

// Center returns the center point of r.
func (r Rect) Center() Point { return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2} }

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsRect reports whether s lies entirely within r (with tolerance tol:
// s may stick out by at most tol on each side).
func (r Rect) ContainsRect(s Rect, tol float64) bool {
	return s.MinX >= r.MinX-tol && s.MinY >= r.MinY-tol &&
		s.MaxX <= r.MaxX+tol && s.MaxY <= r.MaxY+tol
}

// Overlap returns the area of the intersection of r and s (0 if disjoint).
func (r Rect) Overlap(s Rect) float64 {
	w := math.Min(r.MaxX, s.MaxX) - math.Max(r.MinX, s.MinX)
	h := math.Min(r.MaxY, s.MaxY) - math.Max(r.MinY, s.MinY)
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// Intersects reports whether r and s overlap with positive area beyond tol.
func (r Rect) Intersects(s Rect, tol float64) bool {
	w := math.Min(r.MaxX, s.MaxX) - math.Max(r.MinX, s.MinX)
	h := math.Min(r.MaxY, s.MaxY) - math.Max(r.MinY, s.MinY)
	return w > tol && h > tol
}

// Union returns the bounding box of r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		MinX: min(r.MinX, s.MinX), MinY: min(r.MinY, s.MinY),
		MaxX: max(r.MaxX, s.MaxX), MaxY: max(r.MaxY, s.MaxY),
	}
}

// BBox is a running bounding box accumulator. The zero value is empty.
type BBox struct {
	set                    bool
	minX, minY, maxX, maxY float64
}

// Extend grows the box to include p. It uses the builtin min and max,
// which compile inline: −0 orders below +0 and a NaN coordinate makes the
// box NaN, so the result does not depend on the order points arrive in.
// (math.Min and math.Max differ in one corner: they let −Inf, resp. +Inf,
// win over NaN.)
func (b *BBox) Extend(p Point) {
	if !b.set {
		b.set = true
		b.minX, b.maxX = p.X, p.X
		b.minY, b.maxY = p.Y, p.Y
		return
	}
	b.minX = min(b.minX, p.X)
	b.maxX = max(b.maxX, p.X)
	b.minY = min(b.minY, p.Y)
	b.maxY = max(b.maxY, p.Y)
}

// Empty reports whether no point has been added.
func (b *BBox) Empty() bool { return !b.set }

// HalfPerimeter returns (width + height) of the accumulated box, the HPWL
// contribution of a net whose pins were Extended into b. Zero when empty.
func (b *BBox) HalfPerimeter() float64 {
	if !b.set {
		return 0
	}
	return (b.maxX - b.minX) + (b.maxY - b.minY)
}

// Rect returns the accumulated box (zero Rect when empty).
func (b *BBox) Rect() Rect {
	if !b.set {
		return Rect{}
	}
	return Rect{MinX: b.minX, MinY: b.minY, MaxX: b.maxX, MaxY: b.maxY}
}

// OnBoundary reports whether p is on the boundary of the accumulated box
// within tol (used by the hyper-edge adaptation of Eq. 20: only pins on the
// bounding box of the net influence the adaptive weights).
func (b *BBox) OnBoundary(p Point, tol float64) bool {
	if !b.set {
		return false
	}
	return math.Abs(p.X-b.minX) <= tol || math.Abs(p.X-b.maxX) <= tol ||
		math.Abs(p.Y-b.minY) <= tol || math.Abs(p.Y-b.maxY) <= tol
}
