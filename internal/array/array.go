// Package array models microphone array geometry: element positions,
// far-field propagation vectors, time differences of arrival, and steering
// vectors (Eq. 1 and Eq. 3–8 of the paper).
//
// The coordinate convention follows the paper's Figure 1: the array is
// centered at the origin, θ is the azimuth measured in the x-y plane from
// the +x axis, and φ is the elevation (polar) angle measured from the +z
// axis. A user standing in front of the array sits along +y (θ = π/2).
package array

import (
	"fmt"
	"math"
	"math/cmplx"
)

// SpeedOfSound is the propagation speed used throughout, in m/s.
const SpeedOfSound = 343.0

// Vec3 is a Cartesian position or direction in meters.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + o.
func (v Vec3) Add(o Vec3) Vec3 { return Vec3{v.X + o.X, v.Y + o.Y, v.Z + o.Z} }

// Sub returns v - o.
func (v Vec3) Sub(o Vec3) Vec3 { return Vec3{v.X - o.X, v.Y - o.Y, v.Z - o.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product v·o.
func (v Vec3) Dot(o Vec3) float64 { return v.X*o.X + v.Y*o.Y + v.Z*o.Z }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Dist returns the Euclidean distance between v and o.
func (v Vec3) Dist(o Vec3) float64 { return v.Sub(o).Norm() }

// Direction is an incident direction Ω = {θ, φ} in radians: Azimuth θ from
// the +x axis in the x-y plane, Elevation φ from the +z axis (the paper's
// convention; φ = π/2 is the horizontal plane).
type Direction struct {
	Azimuth   float64
	Elevation float64
}

// UnitVector returns the unit vector pointing from the origin toward the
// source at direction d.
func (d Direction) UnitVector() Vec3 {
	sinPhi := math.Sin(d.Elevation)
	return Vec3{
		X: sinPhi * math.Cos(d.Azimuth),
		Y: sinPhi * math.Sin(d.Azimuth),
		Z: math.Cos(d.Elevation),
	}
}

// PropagationVector returns v(Ω) = -[sinφcosθ, sinφsinθ, cosφ]ᵀ (Eq. 5),
// the direction the plane wave travels (from the source toward the array).
func (d Direction) PropagationVector() Vec3 {
	return d.UnitVector().Scale(-1)
}

// DirectionTo returns the Ω = {θ, φ} of the ray from the origin to point p.
// The zero vector maps to the +z axis.
func DirectionTo(p Vec3) Direction {
	r := p.Norm()
	if r == 0 {
		return Direction{Azimuth: 0, Elevation: 0}
	}
	return Direction{
		Azimuth:   math.Atan2(p.Y, p.X),
		Elevation: math.Acos(clamp(p.Z/r, -1, 1)),
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Array is a rigid set of microphones.
type Array struct {
	mics []Vec3
}

// New builds an array from explicit microphone positions. At least one
// microphone is required.
func New(positions []Vec3) (*Array, error) {
	if len(positions) == 0 {
		return nil, fmt.Errorf("array: no microphone positions")
	}
	mics := make([]Vec3, len(positions))
	copy(mics, positions)
	return &Array{mics: mics}, nil
}

// Circular builds a uniform circular array of n microphones with the given
// radius in the x-y plane (z = 0), with microphone 0 on the +x axis.
func Circular(n int, radius float64) (*Array, error) {
	if n < 2 {
		return nil, fmt.Errorf("array: circular array needs >= 2 mics, got %d", n)
	}
	if radius <= 0 {
		return nil, fmt.Errorf("array: circular radius %g <= 0", radius)
	}
	mics := make([]Vec3, n)
	for i := range mics {
		a := 2 * math.Pi * float64(i) / float64(n)
		mics[i] = Vec3{X: radius * math.Cos(a), Y: radius * math.Sin(a)}
	}
	return &Array{mics: mics}, nil
}

// ReSpeaker returns the 6-microphone circular array the paper prototypes
// on: adjacent microphones ~5 cm apart on a circle, which for a hexagonal
// layout means a 5 cm radius.
func ReSpeaker() *Array {
	a, err := Circular(6, 0.05)
	if err != nil {
		// Construction with fixed valid parameters cannot fail.
		panic(err)
	}
	return a
}

// Len returns the number of microphones M.
func (a *Array) Len() int { return len(a.mics) }

// Mic returns the position of microphone m.
func (a *Array) Mic(m int) Vec3 { return a.mics[m] }

// Positions returns a copy of all microphone positions.
func (a *Array) Positions() []Vec3 {
	out := make([]Vec3, len(a.mics))
	copy(out, a.mics)
	return out
}

// Aperture returns the largest inter-microphone distance.
func (a *Array) Aperture() float64 {
	var worst float64
	for i := range a.mics {
		for j := i + 1; j < len(a.mics); j++ {
			if d := a.mics[i].Dist(a.mics[j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// MinSpacing returns the smallest inter-microphone distance.
func (a *Array) MinSpacing() float64 {
	best := math.Inf(1)
	for i := range a.mics {
		for j := i + 1; j < len(a.mics); j++ {
			if d := a.mics[i].Dist(a.mics[j]); d < best {
				best = d
			}
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

// TDOA returns the arrival delay at microphone m relative to the array
// origin for a far-field plane wave from direction d: a microphone
// displaced toward the source receives the wavefront earlier (negative
// delay). This is the paper's Eq. 6 with the sign fixed to match physical
// arrival order; the distinction is unobservable on a centro-symmetric
// array but matters against the simulator's ground truth.
func (a *Array) TDOA(m int, d Direction) float64 {
	return d.PropagationVector().Dot(a.mics[m]) / SpeedOfSound
}

// TDOAs returns the relative delays for every microphone.
func (a *Array) TDOAs(d Direction) []float64 {
	out := make([]float64, len(a.mics))
	for m := range a.mics {
		out[m] = a.TDOA(m, d)
	}
	return out
}

// SteeringVector returns the narrowband array response at freqHz for a
// far-field source in direction d (the paper's p_s of Eq. 7–8, with the
// phase sign matching physical arrival order): element m is e^{-jω·τ_m},
// unit modulus.
func (a *Array) SteeringVector(d Direction, freqHz float64) []complex128 {
	out := make([]complex128, len(a.mics))
	a.SteeringVectorInto(out, d, freqHz)
	return out
}

// SteeringVectorInto writes the steering vector into dst, which must have
// one entry per microphone. Hot loops (per-pixel imaging plans, pooled
// MVDR weight solves) use it with a reused buffer to avoid one allocation
// per direction.
func (a *Array) SteeringVectorInto(dst []complex128, d Direction, freqHz float64) {
	if len(dst) != len(a.mics) {
		panic(fmt.Sprintf("array: steering destination length %d for %d mics", len(dst), len(a.mics)))
	}
	k := 2 * math.Pi * freqHz / SpeedOfSound
	u := d.UnitVector()
	for m, p := range a.mics {
		// e^{-jω·τ_m} with τ_m = -u·p_m/c.
		dst[m] = cmplx.Rect(1, k*u.Dot(p))
	}
}

// FarFieldDistance returns the minimum source distance L ≥ 2d²/λ (Eq. 1)
// for the plane-wave approximation to hold at freqHz, using the array
// aperture as d.
func (a *Array) FarFieldDistance(freqHz float64) float64 {
	lambda := SpeedOfSound / freqHz
	d := a.Aperture()
	return 2 * d * d / lambda
}

// GratingLobeFree reports whether the array's minimum spacing satisfies the
// d < λ/2 spatial-sampling criterion at freqHz (§V-A).
func (a *Array) GratingLobeFree(freqHz float64) bool {
	lambda := SpeedOfSound / freqHz
	return a.MinSpacing() < lambda/2
}

// MaxGratingLobeFreeHz returns the highest frequency at which the array is
// free of grating lobes: f < c / (2·minSpacing).
func (a *Array) MaxGratingLobeFreeHz() float64 {
	s := a.MinSpacing()
	if s == 0 {
		return math.Inf(1)
	}
	return SpeedOfSound / (2 * s)
}
