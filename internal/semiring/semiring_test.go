package semiring

import (
	"math"
	"testing"
	"testing/quick"
)

func TestParseOp(t *testing.T) {
	cases := map[string]Op{"SUM": Sum, "COUNT": Count, "MIN": Min, "MAX": Max}
	for name, want := range cases {
		got, err := ParseOp(name)
		if err != nil || got != want {
			t.Fatalf("ParseOp(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseOp("AVG"); err == nil {
		t.Fatal("ParseOp(AVG) should fail")
	}
}

func TestIdentities(t *testing.T) {
	for _, op := range []Op{Sum, Count, Min, Max} {
		for _, x := range []float64{-3, 0, 1, 42.5} {
			if got := op.Add(op.Zero(), x); got != x {
				t.Fatalf("%s: 0⊕%v = %v", op, x, got)
			}
			if got := op.Mul(op.One(), x); got != x {
				t.Fatalf("%s: 1⊗%v = %v", op, x, got)
			}
		}
	}
}

func TestTropical(t *testing.T) {
	if Min.Add(3, 5) != 3 || Min.Mul(3, 5) != 8 {
		t.Fatal("Min semiring ops wrong")
	}
	if Max.Add(3, 5) != 5 || Max.Mul(3, 5) != 8 {
		t.Fatal("Max semiring ops wrong")
	}
	if !math.IsInf(Min.Zero(), 1) || !math.IsInf(Max.Zero(), -1) {
		t.Fatal("tropical zeros wrong")
	}
}

func TestMonotone(t *testing.T) {
	if !Min.Monotone() || !Max.Monotone() || Sum.Monotone() || Count.Monotone() {
		t.Fatal("Monotone flags wrong")
	}
	if !Min.Better(1, 2) || Min.Better(2, 1) || Min.Better(1, 1) {
		t.Fatal("Min.Better wrong")
	}
	if !Max.Better(2, 1) || Max.Better(1, 2) {
		t.Fatal("Max.Better wrong")
	}
}

// Semiring laws: ⊕ commutative/associative, ⊗ associative, ⊗ distributes
// over ⊕ (checked approximately for Sum due to float rounding; exactly for
// the tropical semirings).
func TestQuickSemiringLaws(t *testing.T) {
	approx := func(a, b float64) bool {
		if math.IsInf(a, 0) || math.IsInf(b, 0) {
			return a == b
		}
		d := math.Abs(a - b)
		return d <= 1e-9*(1+math.Abs(a)+math.Abs(b))
	}
	for _, op := range []Op{Sum, Min, Max} {
		op := op
		f := func(a, b, c float64) bool {
			if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
				return true
			}
			// Keep magnitudes sane for float stability.
			clamp := func(x float64) float64 { return math.Mod(x, 1e6) }
			a, b, c = clamp(a), clamp(b), clamp(c)
			if !approx(op.Add(a, b), op.Add(b, a)) {
				return false
			}
			if !approx(op.Add(op.Add(a, b), c), op.Add(a, op.Add(b, c))) {
				return false
			}
			if !approx(op.Mul(op.Mul(a, b), c), op.Mul(a, op.Mul(b, c))) {
				return false
			}
			if !approx(op.Mul(a, op.Add(b, c)), op.Add(op.Mul(a, b), op.Mul(a, c))) {
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
}

// MinOf and MaxOf are math.Min and math.Max to the bit, on every pair of
// special values (signed zeros, infinities, NaNs with two payloads) and
// on random finite pairs, equal ones included.
func TestMinMaxOfMatchMath(t *testing.T) {
	nan2 := math.Float64frombits(0x7ff8_0000_0000_0f00)
	specials := []float64{0, math.Copysign(0, -1), 1, -1, 2.5, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(), nan2}
	check := func(a, b float64) {
		if got, want := MinOf(a, b), math.Min(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("MinOf(%v, %v) = %x, math.Min %x", a, b, math.Float64bits(got), math.Float64bits(want))
		}
		if got, want := MaxOf(a, b), math.Max(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("MaxOf(%v, %v) = %x, math.Max %x", a, b, math.Float64bits(got), math.Float64bits(want))
		}
	}
	for _, a := range specials {
		for _, b := range specials {
			check(a, b)
		}
	}
	if err := quick.Check(func(a, b float64) bool { check(a, b); check(a, a); return true }, nil); err != nil {
		t.Fatal(err)
	}
}
