package symexpr

import (
	"math/rand"
	"sync"
	"testing"
)

// randExprFrom builds a random expression driven by r, over a small shared
// variable pool, hitting every constructor family.
func randExprFrom(r *rand.Rand, depth int) *Expr {
	if depth == 0 || r.Intn(3) == 0 {
		switch r.Intn(4) {
		case 0:
			return NewVar(Var{Buf: "x", Idx: r.Intn(3), W: W8})
		case 1:
			return NewVar(Var{Buf: "y", W: W8})
		case 2:
			return Const(uint64(r.Intn(256)), W8)
		default:
			return Const(uint64(r.Intn(2)), W8)
		}
	}
	x := randExprFrom(r, depth-1)
	switch r.Intn(14) {
	case 0:
		return Not(x)
	case 1:
		return Neg(x)
	case 2:
		return Trunc(ZExt(x, W32), W8)
	case 3:
		return Trunc(SExt(x, W16), W8)
	case 4:
		return Ite(Ult(x, randExprFrom(r, depth-1)), x, randExprFrom(r, depth-1))
	default:
		y := randExprFrom(r, depth-1)
		ops := []func(a, b *Expr) *Expr{Add, Sub, Mul, And, Or, Xor, UDiv, URem, Shl, LShr}
		return ops[r.Intn(len(ops))](x, y)
	}
}

// TestInterningCanonical is the hash-consing contract: building the same
// random expression twice from the same seed yields the same pointer, and
// pointer equality coincides with structural equality (checked through the
// process-independent Compare order, which must agree).
func TestInterningCanonical(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a := randExprFrom(rand.New(rand.NewSource(seed)), 5)
		b := randExprFrom(rand.New(rand.NewSource(seed)), 5)
		if a != b {
			t.Fatalf("seed %d: identical construction produced distinct pointers:\n%v\n%v", seed, a, b)
		}
		if !Equal(a, b) || Compare(a, b) != 0 {
			t.Fatalf("seed %d: Equal/Compare disagree with pointer identity", seed)
		}
		if a.Hash() != b.Hash() {
			t.Fatalf("seed %d: Hash not stable across reconstruction", seed)
		}
	}
	// Distinct structures must get distinct pointers and nonzero Compare.
	x := NewVar(Var{Buf: "x", W: W8})
	y := NewVar(Var{Buf: "y", W: W8})
	if x == y || Compare(x, y) == 0 {
		t.Fatal("distinct variables interned to one node")
	}
	if Compare(x, y) != -Compare(y, x) {
		t.Fatal("Compare is not antisymmetric")
	}
}

// TestInterningConcurrent hammers the interner from many goroutines building
// overlapping expression sets; under -race this validates the sharded
// locking, and afterwards every goroutine must have received the same
// pointer for the same structure.
func TestInterningConcurrent(t *testing.T) {
	const (
		workers = 8
		perSeed = 40
	)
	results := make([][]*Expr, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]*Expr, perSeed)
			for seed := 0; seed < perSeed; seed++ {
				out[seed] = randExprFrom(rand.New(rand.NewSource(int64(seed))), 5)
			}
			results[w] = out
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for seed := 0; seed < perSeed; seed++ {
			if results[w][seed] != results[0][seed] {
				t.Fatalf("worker %d seed %d: interner returned a different canonical pointer", w, seed)
			}
		}
	}
}

// TestSimplifyPreservesSemantics: whatever rewrites the constructors apply,
// the built expression must evaluate exactly like the unsimplified operator
// semantics (foldBin / Eval) under random environments. This pins every
// algebraic simplification in simplifyBinary to the interpreter semantics.
func TestSimplifyPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(321))
	type binOp struct {
		op    Op
		build func(a, b *Expr) *Expr
	}
	ops := []binOp{
		{OpAdd, Add}, {OpSub, Sub}, {OpMul, Mul}, {OpUDiv, UDiv}, {OpURem, URem},
		{OpAnd, And}, {OpOr, Or}, {OpXor, Xor}, {OpShl, Shl}, {OpLShr, LShr},
		{OpEq, Eq}, {OpUlt, Ult}, {OpUle, Ule}, {OpSlt, Slt}, {OpSle, Sle},
	}
	for trial := 0; trial < 3000; trial++ {
		x := randExprFrom(r, 2)
		y := randExprFrom(r, 2)
		o := ops[r.Intn(len(ops))]
		built := o.build(x, y)
		env := Assignment{}
		for _, v := range Vars(x) {
			env[v] = r.Uint64() & v.W.Mask()
		}
		for _, v := range Vars(y) {
			if _, ok := env[v]; !ok {
				env[v] = r.Uint64() & v.W.Mask()
			}
		}
		want := foldBin(o.op, Eval(x, env), Eval(y, env), x.Width())
		if got := Eval(built, env); got != want {
			t.Fatalf("trial %d: op %v over\n  x=%v\n  y=%v\n  env=%v\nsimplified to %v evaluating to %d, want %d",
				trial, o.op, x, y, env, built, got, want)
		}
	}
}

// TestCompareTotalOrder checks Compare is a consistent total order over a
// random population: antisymmetric, transitive on sampled triples, and zero
// exactly on pointer-equal nodes.
func TestCompareTotalOrder(t *testing.T) {
	r := rand.New(rand.NewSource(777))
	pop := make([]*Expr, 60)
	for i := range pop {
		pop[i] = randExprFrom(r, 3)
	}
	for i := range pop {
		for j := range pop {
			cij := Compare(pop[i], pop[j])
			if (cij == 0) != (pop[i] == pop[j]) {
				t.Fatalf("Compare==0 must coincide with interned identity (%d,%d)", i, j)
			}
			if sign(cij) != -sign(Compare(pop[j], pop[i])) {
				t.Fatalf("Compare not antisymmetric on (%d,%d)", i, j)
			}
		}
	}
	for trial := 0; trial < 3000; trial++ {
		a, b, c := pop[r.Intn(len(pop))], pop[r.Intn(len(pop))], pop[r.Intn(len(pop))]
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			t.Fatalf("Compare not transitive on sampled triple:\n%v\n%v\n%v", a, b, c)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// TestEncodeDecodeRoundTrip: the binary codec must reproduce the identical
// interned node for random expressions, and consume exactly the bytes it
// wrote.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 500; trial++ {
		e := randExprFrom(r, 5)
		buf := AppendExpr(nil, e)
		got, n, err := DecodeExpr(buf)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if n != len(buf) {
			t.Fatalf("trial %d: decoded %d of %d bytes", trial, n, len(buf))
		}
		if got != e {
			t.Fatalf("trial %d: round trip lost identity:\n in: %v\nout: %v", trial, e, got)
		}
	}
	// Concatenated encodings decode in sequence.
	a := NewVar(Var{Buf: "x", W: W8})
	b := Ult(a, Const(7, W8))
	buf := AppendExpr(AppendExpr(nil, a), b)
	g1, n1, err := DecodeExpr(buf)
	if err != nil || g1 != a {
		t.Fatalf("first decode: %v %v", g1, err)
	}
	g2, _, err := DecodeExpr(buf[n1:])
	if err != nil || g2 != b {
		t.Fatalf("second decode: %v %v", g2, err)
	}
}

// TestDecodeRejectsCorruption: truncations and byte flips of a valid
// encoding must decode to an error or to a *valid* expression (a flip can
// produce a different well-formed term), never panic or produce a malformed
// node.
func TestDecodeRejectsCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	e := randExprFrom(r, 5)
	buf := AppendExpr(nil, e)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeExpr(buf[:cut]); err == nil {
			// A prefix can be a complete encoding of a subterm only if the
			// whole buffer is consumed; DecodeExpr reports consumed bytes, so
			// success on a strict prefix is legitimate only when the decoder
			// stopped early at a valid boundary — which cannot happen for a
			// preorder encoding cut mid-stream except at position boundaries
			// of the root's first complete subtree. Verify it returned a
			// structurally valid node at least.
			got, n, _ := DecodeExpr(buf[:cut])
			if got == nil || n > cut {
				t.Fatalf("cut %d: invalid success", cut)
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), buf...)
		mut[r.Intn(len(mut))] ^= byte(1 << r.Intn(8))
		got, _, err := DecodeExpr(mut) // must not panic
		if err == nil && got == nil {
			t.Fatalf("trial %d: nil expression without error", trial)
		}
	}
	// Deep nesting must be rejected, not overflow the stack.
	deep := make([]byte, 0, maxDecodeDepth+10)
	for i := 0; i < maxDecodeDepth+5; i++ {
		deep = append(deep, encNode, byte(OpNot), byte(W8), 1)
	}
	if _, _, err := DecodeExpr(deep); err == nil {
		t.Fatal("over-deep encoding decoded without error")
	}
}

// TestInternedCountMonotone sanity-checks the observability counter.
func TestInternedCountMonotone(t *testing.T) {
	before := InternedCount()
	NewVar(Var{Buf: "intern-count-probe", W: W64})
	after := InternedCount()
	if after < before+1 {
		t.Fatalf("InternedCount did not grow: %d -> %d", before, after)
	}
	NewVar(Var{Buf: "intern-count-probe", W: W64}) // already interned
	if InternedCount() != after {
		t.Fatal("re-interning an existing node changed the count")
	}
}
