package vec

import (
	"fmt"
	"math"
)

// Quat is a quaternion w + xi + yj + zk. Unit quaternions represent
// rigid-body orientations of ligand conformations.
type Quat struct {
	W, X, Y, Z float64
}

// IdentityQuat is the identity rotation.
var IdentityQuat = Quat{W: 1}

// QuatFromAxisAngle returns the unit quaternion rotating by angle radians
// around axis. The axis need not be normalized; a zero axis yields the
// identity rotation.
func QuatFromAxisAngle(axis V3, angle float64) Quat {
	u := axis.Unit()
	if u == Zero {
		return IdentityQuat
	}
	s, c := math.Sincos(angle / 2)
	return Quat{W: c, X: u.X * s, Y: u.Y * s, Z: u.Z * s}
}

// Mul returns the Hamilton product q*r, the rotation r followed by q.
func (q Quat) Mul(r Quat) Quat {
	return Quat{
		W: q.W*r.W - q.X*r.X - q.Y*r.Y - q.Z*r.Z,
		X: q.W*r.X + q.X*r.W + q.Y*r.Z - q.Z*r.Y,
		Y: q.W*r.Y - q.X*r.Z + q.Y*r.W + q.Z*r.X,
		Z: q.W*r.Z + q.X*r.Y - q.Y*r.X + q.Z*r.W,
	}
}

// Conj returns the conjugate of q. For unit quaternions this is the inverse
// rotation.
func (q Quat) Conj() Quat { return Quat{W: q.W, X: -q.X, Y: -q.Y, Z: -q.Z} }

// Norm returns the quaternion norm.
func (q Quat) Norm() float64 {
	return math.Sqrt(q.W*q.W + q.X*q.X + q.Y*q.Y + q.Z*q.Z)
}

// Unit returns q normalized to unit norm. A zero quaternion yields the
// identity.
func (q Quat) Unit() Quat {
	n := q.Norm()
	if n == 0 {
		return IdentityQuat
	}
	inv := 1 / n
	return Quat{q.W * inv, q.X * inv, q.Y * inv, q.Z * inv}
}

// Rotate applies the rotation represented by the unit quaternion q to v.
func (q Quat) Rotate(v V3) V3 {
	// v' = v + 2*u x (u x v + w*v), with u the vector part of q.
	u := V3{q.X, q.Y, q.Z}
	t := u.Cross(v).Add(v.Scale(q.W)) // u x v + w*v
	return v.Add(u.Cross(t).Scale(2))
}

// Mat3 returns the 3x3 rotation matrix equivalent to the unit quaternion q.
func (q Quat) Mat3() Mat3 {
	xx, yy, zz := q.X*q.X, q.Y*q.Y, q.Z*q.Z
	xy, xz, yz := q.X*q.Y, q.X*q.Z, q.Y*q.Z
	wx, wy, wz := q.W*q.X, q.W*q.Y, q.W*q.Z
	return Mat3{
		1 - 2*(yy+zz), 2 * (xy - wz), 2 * (xz + wy),
		2 * (xy + wz), 1 - 2*(xx+zz), 2 * (yz - wx),
		2 * (xz - wy), 2 * (yz + wx), 1 - 2*(xx+yy),
	}
}

// Slerp spherically interpolates between unit quaternions q and r by t in
// [0, 1]. Inputs are assumed unit; the result is unit.
func (q Quat) Slerp(r Quat, t float64) Quat {
	dot := q.W*r.W + q.X*r.X + q.Y*r.Y + q.Z*r.Z
	// Take the short arc.
	if dot < 0 {
		r = Quat{-r.W, -r.X, -r.Y, -r.Z}
		dot = -dot
	}
	if dot > 0.9995 {
		// Nearly parallel: fall back to normalized lerp.
		return Quat{
			q.W + t*(r.W-q.W),
			q.X + t*(r.X-q.X),
			q.Y + t*(r.Y-q.Y),
			q.Z + t*(r.Z-q.Z),
		}.Unit()
	}
	theta := math.Acos(dot)
	sin := math.Sin(theta)
	a := math.Sin((1-t)*theta) / sin
	b := math.Sin(t*theta) / sin
	return Quat{
		a*q.W + b*r.W,
		a*q.X + b*r.X,
		a*q.Y + b*r.Y,
		a*q.Z + b*r.Z,
	}
}

// AngleTo returns the rotation angle in radians between unit quaternions
// q and r, in [0, pi].
func (q Quat) AngleTo(r Quat) float64 {
	dot := math.Abs(q.W*r.W + q.X*r.X + q.Y*r.Y + q.Z*r.Z)
	if dot > 1 {
		dot = 1
	}
	return 2 * math.Acos(dot)
}

// IsFinite reports whether every component of q is finite.
func (q Quat) IsFinite() bool {
	for _, c := range [4]float64{q.W, q.X, q.Y, q.Z} {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (q Quat) String() string {
	return fmt.Sprintf("quat(w=%.4f, x=%.4f, y=%.4f, z=%.4f)", q.W, q.X, q.Y, q.Z)
}
