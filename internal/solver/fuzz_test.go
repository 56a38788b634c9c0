package solver

import (
	"testing"

	sx "chef/internal/symexpr"
)

// byteDriver turns a fuzzer-controlled byte stream into structured decisions;
// exhausted input yields zeros, so every byte string maps to a well-formed
// query (no rejected inputs, maximal fuzzing throughput).
type byteDriver struct {
	data []byte
	pos  int
}

func (d *byteDriver) next() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

// fuzzTerm builds a W8 term over the fixed oracle pool, driven by input
// bytes.
func fuzzTerm(d *byteDriver, depth int) *sx.Expr {
	b := d.next()
	if depth == 0 || b%3 == 0 {
		if b%2 == 0 {
			return sx.NewVar(oraclePool[0])
		}
		return sx.Const(uint64(d.next()), sx.W8)
	}
	x := fuzzTerm(d, depth-1)
	switch b % 13 {
	case 1:
		return sx.Neg(x)
	case 2:
		return sx.Not(x)
	case 3:
		return sx.ZExt(sx.NewVar(oraclePool[1+int(d.next())%2]), sx.W8)
	case 4:
		return sx.Ite(fuzzBool(d, 0), x, fuzzTerm(d, depth-1))
	default:
		y := fuzzTerm(d, depth-1)
		ops := []func(a, b *sx.Expr) *sx.Expr{
			sx.Add, sx.Sub, sx.Mul, sx.And, sx.Or, sx.Xor, sx.UDiv, sx.URem, sx.Shl, sx.LShr,
		}
		return ops[int(b)%len(ops)](x, y)
	}
}

// fuzzBool builds a W1 constraint over the pool, driven by input bytes.
func fuzzBool(d *byteDriver, depth int) *sx.Expr {
	b := d.next()
	cmps := []func(a, b *sx.Expr) *sx.Expr{sx.Eq, sx.Ne, sx.Ult, sx.Ule, sx.Slt, sx.Sle}
	if depth == 0 || b%4 == 0 {
		switch b % 3 {
		case 0:
			return sx.NewVar(oraclePool[1])
		case 1:
			return sx.NewVar(oraclePool[2])
		default:
			return cmps[int(d.next())%len(cmps)](fuzzTerm(d, 1), fuzzTerm(d, 1))
		}
	}
	switch b % 4 {
	case 1:
		return sx.Not(fuzzBool(d, depth-1))
	case 2:
		return sx.BoolAnd(fuzzBool(d, depth-1), fuzzBool(d, depth-1))
	case 3:
		return sx.BoolOr(fuzzBool(d, depth-1), fuzzBool(d, depth-1))
	default:
		return cmps[int(d.next())%len(cmps)](fuzzTerm(d, 2), fuzzTerm(d, 2))
	}
}

// FuzzSolverCheck feeds byte-derived path conditions through the solver in
// every cache mode on both backends (oneshot and incremental) and
// cross-checks: all configurations must return the same verdict as the
// cache-disabled control and the brute-force oracle, every Sat model must
// satisfy the query, and a repeated check (served from the cache, or for the
// incremental nocache control re-solved on the retained assumption prefix)
// must reproduce the verdict. The variable pool is fixed at 10 total bits, so
// the oracle is always feasible.
func FuzzSolverCheck(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0x00, 0x7f, 0x80, 0x55, 0xaa, 0x13, 0x37, 0x01})
	f.Add([]byte("subsume-me-gently"))
	f.Add([]byte{9, 9, 9, 9, 0, 0, 0, 0, 255, 255, 255, 255, 17, 34, 51, 68})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := &byteDriver{data: data}
		k := 1 + int(d.next())%4
		pc := make([]*sx.Expr, 0, k)
		for i := 0; i < k; i++ {
			pc = append(pc, fuzzBool(d, 2))
		}
		var base sx.Assignment
		if d.next()%2 == 1 {
			base = sx.Assignment{}
			for _, v := range oraclePool {
				base[v] = uint64(d.next()) & v.W.Mask()
			}
		}

		want, _, feasible := OracleCheck(pc)
		if !feasible {
			t.Fatalf("pool exceeded oracle bound: %v", pc)
		}

		solvers := map[string]*Solver{
			"nocache":     New(Options{DisableCache: true}),
			"exact":       New(Options{Mode: CacheExact}),
			"subsume":     New(Options{Mode: CacheSubsume}),
			"inc/nocache": New(Options{DisableCache: true, SolverMode: ModeIncremental}),
			"inc/exact":   New(Options{Mode: CacheExact, SolverMode: ModeIncremental}),
			"inc/subsume": New(Options{Mode: CacheSubsume, SolverMode: ModeIncremental}),
		}
		for name, s := range solvers {
			for round := 0; round < 2; round++ { // round 2 exercises cache hits
				res, model := s.CheckQuery(Query{PC: pc, Base: base})
				if res != want {
					t.Fatalf("[%s round %d] solver=%v oracle=%v pc=%v base=%v",
						name, round, res, want, pc, base)
				}
				if res == Sat {
					for _, c := range pc {
						if !sx.EvalBool(c, model) {
							t.Fatalf("[%s round %d] model %v violates %v", name, round, model, c)
						}
					}
				}
			}
		}
	})
}
