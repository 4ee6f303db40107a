package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQuatIdentityRotation(t *testing.T) {
	v := New(1, 2, 3)
	if got := IdentityQuat.Rotate(v); !got.ApproxEq(v, eps) {
		t.Errorf("identity rotation changed vector: %v", got)
	}
}

func TestQuatAxisAngle90(t *testing.T) {
	q := QuatFromAxisAngle(New(0, 0, 1), math.Pi/2)
	got := q.Rotate(New(1, 0, 0))
	if !got.ApproxEq(New(0, 1, 0), 1e-9) {
		t.Errorf("rotating x by 90deg about z = %v, want y", got)
	}
}

func TestQuatZeroAxis(t *testing.T) {
	q := QuatFromAxisAngle(Zero, 1.0)
	if q != IdentityQuat {
		t.Errorf("zero axis = %v, want identity", q)
	}
}

func TestQuatConjInverts(t *testing.T) {
	q := QuatFromAxisAngle(New(1, 2, 3), 0.7)
	v := New(4, 5, 6)
	back := q.Conj().Rotate(q.Rotate(v))
	if !back.ApproxEq(v, 1e-9) {
		t.Errorf("conj did not invert: %v", back)
	}
}

func TestQuatMulComposes(t *testing.T) {
	qa := QuatFromAxisAngle(New(0, 0, 1), 0.3)
	qb := QuatFromAxisAngle(New(0, 1, 0), 0.5)
	v := New(1, 2, 3)
	composed := qa.Mul(qb).Rotate(v)
	sequential := qa.Rotate(qb.Rotate(v))
	if !composed.ApproxEq(sequential, 1e-9) {
		t.Errorf("composition mismatch: %v vs %v", composed, sequential)
	}
}

func TestQuatMat3Agrees(t *testing.T) {
	q := QuatFromAxisAngle(New(1, -1, 0.5), 1.1)
	m := q.Mat3()
	v := New(0.4, -2, 3)
	if !m.MulV(v).ApproxEq(q.Rotate(v), 1e-9) {
		t.Error("matrix and quaternion rotation disagree")
	}
	if math.Abs(m.Det()-1) > 1e-9 {
		t.Errorf("rotation matrix determinant = %v", m.Det())
	}
}

func TestQuatSlerpEndpoints(t *testing.T) {
	qa := QuatFromAxisAngle(New(0, 0, 1), 0.2)
	qb := QuatFromAxisAngle(New(0, 0, 1), 1.4)
	if got := qa.Slerp(qb, 0); got.AngleTo(qa) > 1e-6 {
		t.Errorf("slerp(0) = %v", got)
	}
	if got := qa.Slerp(qb, 1); got.AngleTo(qb) > 1e-6 {
		t.Errorf("slerp(1) = %v", got)
	}
	mid := qa.Slerp(qb, 0.5)
	want := QuatFromAxisAngle(New(0, 0, 1), 0.8)
	if mid.AngleTo(want) > 1e-6 {
		t.Errorf("slerp(0.5) = %v, want %v", mid, want)
	}
}

func TestQuatSlerpNearlyParallel(t *testing.T) {
	qa := QuatFromAxisAngle(New(0, 0, 1), 0.2)
	qb := QuatFromAxisAngle(New(0, 0, 1), 0.2+1e-7)
	got := qa.Slerp(qb, 0.5)
	if math.Abs(got.Norm()-1) > 1e-9 {
		t.Errorf("near-parallel slerp norm = %v", got.Norm())
	}
}

func TestQuatAngleTo(t *testing.T) {
	qa := IdentityQuat
	qb := QuatFromAxisAngle(New(1, 0, 0), 1.0)
	if got := qa.AngleTo(qb); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("AngleTo = %v, want 1", got)
	}
	// Double cover: q and -q are the same rotation.
	qneg := Quat{-qb.W, -qb.X, -qb.Y, -qb.Z}
	if got := qa.AngleTo(qneg); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("AngleTo(-q) = %v, want 1", got)
	}
}

func TestQuatUnitZero(t *testing.T) {
	if got := (Quat{}).Unit(); got != IdentityQuat {
		t.Errorf("Unit(zero quat) = %v", got)
	}
}

func TestQuatIsFinite(t *testing.T) {
	if !IdentityQuat.IsFinite() {
		t.Error("identity reported non-finite")
	}
	if (Quat{W: math.NaN()}).IsFinite() {
		t.Error("NaN quat reported finite")
	}
}

func clampQ(q Quat) Quat {
	c := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 {
			return 0.5
		}
		return math.Mod(x, 10)
	}
	return Quat{c(q.W), c(q.X), c(q.Y), c(q.Z)}
}

func TestQuickRotationPreservesNorm(t *testing.T) {
	f := func(q Quat, v V3) bool {
		u := clampQ(q).Unit()
		v = clampV(v)
		return math.Abs(u.Rotate(v).Norm()-v.Norm()) < 1e-6*(1+v.Norm())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickRotationPreservesDot(t *testing.T) {
	f := func(q Quat, a, b V3) bool {
		u := clampQ(q).Unit()
		a, b = clampV(a), clampV(b)
		scale := 1 + a.Norm()*b.Norm()
		return math.Abs(u.Rotate(a).Dot(u.Rotate(b))-a.Dot(b))/scale < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMulNormMultiplicative(t *testing.T) {
	f := func(a, b Quat) bool {
		a, b = clampQ(a), clampQ(b)
		return math.Abs(a.Mul(b).Norm()-a.Norm()*b.Norm()) < 1e-6*(1+a.Norm()*b.Norm())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuatString(t *testing.T) {
	if IdentityQuat.String() == "" {
		t.Error("empty String()")
	}
}
