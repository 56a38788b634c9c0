package solver

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	sx "chef/internal/symexpr"
)

// removeIfExists deletes path, tolerating its absence.
func removeIfExists(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Differential solver-oracle suite: the production solver — with every cache
// mode, slicing setting and cache-sharing arrangement — must agree with the
// brute-force oracle on satisfiability, and every Sat model it returns must
// actually satisfy the query under the interpreter semantics.
//
// The query generator draws from a small variable pool (one byte plus two
// booleans, 10 total bits) so the oracle enumerates at most 1024 assignments
// per query; the constraint shapes cover every operator family the engine
// emits (arithmetic, bitwise, shifts, signed/unsigned comparisons, ite,
// boolean structure).

var oraclePool = []sx.Var{
	{Buf: "a", W: sx.W8},
	{Buf: "p", W: sx.W1},
	{Buf: "q", W: sx.W1},
}

// oracleTerm builds a random W8 term over the pool.
func oracleTerm(r *rand.Rand, depth int) *sx.Expr {
	if depth == 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			return sx.NewVar(oraclePool[0])
		}
		return sx.Const(uint64(r.Intn(256)), sx.W8)
	}
	x := oracleTerm(r, depth-1)
	switch r.Intn(10) {
	case 0:
		return sx.Neg(x)
	case 1:
		return sx.Not(x)
	case 2:
		return sx.Ite(oracleBool(r, 0), x, oracleTerm(r, depth-1))
	case 3:
		return sx.ZExt(sx.NewVar(oraclePool[1+r.Intn(2)]), sx.W8)
	default:
		y := oracleTerm(r, depth-1)
		ops := []func(a, b *sx.Expr) *sx.Expr{
			sx.Add, sx.Sub, sx.Mul, sx.And, sx.Or, sx.Xor, sx.UDiv, sx.URem, sx.Shl, sx.LShr,
		}
		return ops[r.Intn(len(ops))](x, y)
	}
}

// oracleBool builds a random W1 constraint over the pool.
func oracleBool(r *rand.Rand, depth int) *sx.Expr {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(3) {
		case 0:
			return sx.NewVar(oraclePool[1])
		case 1:
			return sx.NewVar(oraclePool[2])
		default:
			cmps := []func(a, b *sx.Expr) *sx.Expr{sx.Eq, sx.Ne, sx.Ult, sx.Ule, sx.Slt, sx.Sle}
			return cmps[r.Intn(len(cmps))](oracleTerm(r, 1), oracleTerm(r, 1))
		}
	}
	switch r.Intn(4) {
	case 0:
		return sx.Not(oracleBool(r, depth-1))
	case 1:
		return sx.BoolAnd(oracleBool(r, depth-1), oracleBool(r, depth-1))
	case 2:
		return sx.BoolOr(oracleBool(r, depth-1), oracleBool(r, depth-1))
	default:
		cmps := []func(a, b *sx.Expr) *sx.Expr{sx.Eq, sx.Ne, sx.Ult, sx.Ule, sx.Slt, sx.Sle}
		return cmps[r.Intn(len(cmps))](oracleTerm(r, 2), oracleTerm(r, 2))
	}
}

// oracleQuery is one generated trial: a conjunction plus an optional base
// assignment (exercising the slicing path).
type oracleQuery struct {
	pc     []*sx.Expr
	base   sx.Assignment
	want   Result
	checks int // constraints, for reporting
}

func genOracleQueries(t testing.TB, n int, seed int64) []oracleQuery {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	out := make([]oracleQuery, 0, n)
	for len(out) < n {
		k := 1 + r.Intn(4)
		pc := make([]*sx.Expr, 0, k)
		for i := 0; i < k; i++ {
			pc = append(pc, oracleBool(r, 2))
		}
		var base sx.Assignment
		if r.Intn(2) == 0 {
			base = sx.Assignment{}
			for _, v := range oraclePool {
				base[v] = r.Uint64() & v.W.Mask()
			}
		}
		want, _, feasible := OracleCheck(pc)
		if !feasible {
			t.Fatalf("query over fixed pool infeasible for oracle: %v", pc)
		}
		out = append(out, oracleQuery{pc: pc, base: base, want: want, checks: k})
	}
	return out
}

// checkAgainstOracle runs one query through s and compares with the oracle
// verdict, validating the model on Sat.
func checkAgainstOracle(t *testing.T, cfg string, i int, q oracleQuery, s *Solver) (Result, sx.Assignment) {
	t.Helper()
	res, model := s.Check(q.pc, q.base)
	if res != q.want {
		t.Fatalf("[%s] query %d: solver=%v oracle=%v pc=%v base=%v", cfg, i, res, q.want, q.pc, q.base)
	}
	if res == Sat {
		for _, c := range q.pc {
			if !sx.EvalBool(c, model) {
				t.Fatalf("[%s] query %d: returned model %v violates %v", cfg, i, model, c)
			}
		}
	}
	return res, model
}

// TestSolverMatchesOracle cross-checks every backend x cache mode x slicing
// setting, with both fresh private caches and a cache shared between two
// solvers, on the same generated query set. Together with the warm/cold
// persistent pass below, the suite compares well over 10k (query,
// configuration) pairs.
func TestSolverMatchesOracle(t *testing.T) {
	n := 400
	if !testing.Short() {
		n = 1500
	}
	queries := genOracleQueries(t, n, 424242)

	modes := []CacheMode{CacheExact, CacheSubsume}
	for _, sm := range []SolverMode{ModeOneshot, ModeIncremental} {
		qs := queries
		if sm == ModeIncremental {
			// The random stream shares no prefixes, so every query pops the
			// whole trail and re-propagates the accumulated context — the
			// backend's worst case, with per-query cost growing in stream
			// position. A third of the stream keeps the verdict cross-check
			// broad without dominating suite wall time; prefix-shaped
			// streams (the representative workload) are exercised at full
			// depth by TestIncrementalPrefixPopRepush.
			qs = queries[:len(queries)/3]
		}
		for _, mode := range modes {
			// Slicing is a no-op under the incremental backend (it always
			// solves in path order), so the noslice cell only exists for
			// oneshot — under incremental it would duplicate the default.
			noSlices := []bool{false, true}
			if sm == ModeIncremental {
				noSlices = []bool{false}
			}
			for _, noSlice := range noSlices {
				cfg := "backend=" + sm.String() + "/mode=" + mode.String()
				if noSlice {
					cfg += "/noslice"
				}
				s := New(Options{Mode: mode, DisableSlicing: noSlice, SolverMode: sm})
				for i, q := range qs {
					checkAgainstOracle(t, cfg, i, q, s)
				}
			}
			// Shared cache between two solvers, queries interleaved: the second
			// solver sees entries it never stored.
			cfg := "backend=" + sm.String() + "/mode=" + mode.String() + "/shared"
			shared := NewQueryCache(0)
			ss := []*Solver{
				New(Options{Mode: mode, Cache: shared, SolverMode: sm}),
				New(Options{Mode: mode, Cache: shared, SolverMode: sm}),
			}
			for i, q := range qs {
				checkAgainstOracle(t, cfg, i, q, ss[i%2])
			}
			// No cache at all, as the control. For the incremental backend
			// this is the hardest configuration: every query reaches the
			// live context, so every verdict exercises trail pop/re-push.
			s := New(Options{Mode: mode, DisableCache: true, SolverMode: sm})
			for i, q := range qs {
				checkAgainstOracle(t, "backend="+sm.String()+"/mode="+mode.String()+"/nocache", i, q, s)
			}
		}
	}
}

// TestSolverMatchesOraclePersistent runs the query set cold with a fresh
// persistent store, then warm from the written file, checking both passes
// against the oracle and checking the warm pass returns bit-identical
// results — verdict, model and accumulated propagation count — to the cold
// one.
func TestSolverMatchesOraclePersistent(t *testing.T) {
	n := 300
	if !testing.Short() {
		n = 1000
	}
	queries := genOracleQueries(t, n, 99991)
	path := filepath.Join(t.TempDir(), "cxc.bin")

	type outcome struct {
		res   Result
		model sx.Assignment
	}
	runPass := func(label string, mode CacheMode, sm SolverMode, qs []oracleQuery) ([]outcome, Stats) {
		store, err := OpenPersistentStore(path)
		if err != nil {
			t.Fatalf("%s: open: %v", label, err)
		}
		defer func() {
			if err := store.Close(); err != nil {
				t.Fatalf("%s: close: %v", label, err)
			}
		}()
		if cerr := store.Corruption(); cerr != nil {
			t.Fatalf("%s: unexpected corruption: %v", label, cerr)
		}
		s := New(Options{Mode: mode, Persist: store, SolverMode: sm})
		outs := make([]outcome, 0, len(qs))
		for i, q := range qs {
			res, model := checkAgainstOracle(t, label, i, q, s)
			outs = append(outs, outcome{res, model})
		}
		return outs, s.Stats()
	}

	for _, sm := range []SolverMode{ModeOneshot, ModeIncremental} {
		qs := queries
		if sm == ModeIncremental {
			// Same wall-time consideration as TestSolverMatchesOracle: the
			// prefix-free random stream is the incremental backend's worst
			// case, and the cold/warm replay contract is independent of
			// stream length.
			qs = queries[:len(queries)/3]
		}
		for _, mode := range []CacheMode{CacheExact, CacheSubsume} {
			cfg := sm.String() + "/" + mode.String()
			if err := removeIfExists(path); err != nil {
				t.Fatal(err)
			}
			// A fully-warm store replays every cold verdict, model and cost
			// byte-for-byte regardless of backend: the cold pass recorded the
			// whole stream, so the warm pass never reaches the live context.
			cold, coldStats := runPass("cold/"+cfg, mode, sm, qs)
			warm, warmStats := runPass("warm/"+cfg, mode, sm, qs)
			if warmStats.CacheHitsPersist == 0 {
				t.Fatalf("cfg=%s: warm pass recorded no persistent hits", cfg)
			}
			if coldStats.Propagations != warmStats.Propagations {
				t.Fatalf("cfg=%s: virtual cost diverged: cold %d, warm %d propagations",
					cfg, coldStats.Propagations, warmStats.Propagations)
			}
			if coldStats.SatQueries != warmStats.SatQueries || coldStats.UnsatQueries != warmStats.UnsatQueries {
				t.Fatalf("cfg=%s: solve counters diverged: cold %+v warm %+v", cfg, coldStats, warmStats)
			}
			for i := range cold {
				if cold[i].res != warm[i].res {
					t.Fatalf("cfg=%s query %d: cold %v, warm %v", cfg, i, cold[i].res, warm[i].res)
				}
				if !sameModel(cold[i].model, warm[i].model) {
					t.Fatalf("cfg=%s query %d: cold model %v, warm model %v",
						cfg, i, cold[i].model, warm[i].model)
				}
			}
		}
	}
}

func sameModel(a, b sx.Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		bv, ok := b[k]
		if !ok || bv != v {
			return false
		}
	}
	return true
}

// TestSubsumptionHitsOccur pins that the subsume layer actually fires on the
// natural query pattern of symbolic execution: path conditions growing one
// conjunct at a time.
func TestSubsumptionHitsOccur(t *testing.T) {
	s := New(Options{Mode: CacheSubsume})
	a := sx.NewVar(sx.Var{Buf: "a", W: sx.W8})
	grow := []*sx.Expr{
		sx.Ult(a, sx.Const(200, sx.W8)),
		sx.Ult(sx.Const(10, sx.W8), a),
		sx.Ne(a, sx.Const(50, sx.W8)),
	}
	for i := 1; i <= len(grow); i++ {
		if res, m := s.Check(grow[:i], nil); res != Sat {
			t.Fatalf("prefix %d: %v, want Sat", i, res)
		} else {
			for _, c := range grow[:i] {
				if !sx.EvalBool(c, m) {
					t.Fatalf("prefix %d: model %v violates %v", i, m, c)
				}
			}
		}
	}
	st := s.Stats()
	if st.CacheHitsSubsumeSat == 0 {
		t.Fatalf("growing path condition produced no subsume-sat hits: %+v", st)
	}

	// Unsat subsumption: once a core is known unsat, any superset is decided
	// without touching the SAT solver.
	s2 := New(Options{Mode: CacheSubsume})
	contradiction := []*sx.Expr{
		sx.Ult(a, sx.Const(10, sx.W8)),
		sx.Ult(sx.Const(20, sx.W8), a),
	}
	if res, _ := s2.Check(contradiction, nil); res != Unsat {
		t.Fatalf("contradiction: %v, want Unsat", res)
	}
	wider := append(append([]*sx.Expr(nil), contradiction...), sx.Ne(a, sx.Const(3, sx.W8)))
	if res, _ := s2.Check(wider, nil); res != Unsat {
		t.Fatalf("superset of contradiction: %v, want Unsat", res)
	}
	if st := s2.Stats(); st.CacheHitsSubsumeUnsat == 0 {
		t.Fatalf("superset of known-unsat core produced no subsume-unsat hit: %+v", st)
	}
}
