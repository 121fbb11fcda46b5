package analysis

import (
	"strings"
	"testing"

	"fastcoalesce/internal/core"
	"fastcoalesce/internal/ifgraph"
	"fastcoalesce/internal/ir"
	"fastcoalesce/internal/lang"
	"fastcoalesce/internal/liveness"
	"fastcoalesce/internal/ssa"
)

func TestParseLevel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Level
		err  bool
	}{
		{"none", None, false}, {"", None, false},
		{"fast", Fast, false}, {"full", Full, false},
		{"bogus", None, true},
	} {
		got, err := ParseLevel(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseLevel(%q) = %v, %v", tc.in, got, err)
		}
	}
	if Full.String() != "full" || None.String() != "none" || Fast.String() != "fast" {
		t.Error("Level.String round-trip broken")
	}
}

func mustParse(t *testing.T, src string) *ir.Func {
	t.Helper()
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// loopSrc is a loop with a value (s) carried across iterations and used
// after the loop, next to the induction variable — the classic shape that
// makes φ webs and interference interesting.
const loopSrc = `
func acc(n int, m int) int {
	var s int = 0
	var i int = 0
	while i < n {
		s = s + i * m
		i = i + 1
	}
	return s * 10 + i
}
`

// clashSrc keeps two independent values live at once: x and y interfere.
const clashSrc = `
func clash(a int, b int) int {
	var x int = a + b
	var y int = a - b
	return x * y
}
`

func compileSSA(t *testing.T, src string, fold bool) *ir.Func {
	t.Helper()
	f, err := lang.CompileOne(src)
	if err != nil {
		t.Fatal(err)
	}
	ssa.Build(f, ssa.Options{FoldCopies: fold})
	return f
}

func TestStrictSSAUseBeforeDef(t *testing.T) {
	f := ir.NewFunc("bad")
	x, y := f.NewVar("x"), f.NewVar("y")
	b := f.Block(f.Entry)
	b.Instrs = append(b.Instrs,
		ir.Instr{Op: ir.OpCopy, Def: x, Args: []ir.VarID{y}},
		ir.Instr{Op: ir.OpConst, Def: y, Const: 1},
		ir.Instr{Op: ir.OpRet, Def: ir.NoVar, Args: []ir.VarID{x}},
	)
	u := &Unit{SSA: f}
	rep := &Report{}
	strictSSAPass{}.Run(u, rep)
	if !hasDiag(rep, "strict-ssa", "precedes its definition") {
		t.Fatalf("use-before-def not caught:\n%s", rep)
	}
}

func TestStrictSSAMultipleDefs(t *testing.T) {
	f := mustParse(t, `
func twice(n) {
b0:
	n = param 0
	x = 1
	jmp b1
b1:
	x = 2
	ret x
}
`)
	u := &Unit{SSA: f}
	rep := &Report{}
	strictSSAPass{}.Run(u, rep)
	if !hasDiag(rep, "strict-ssa", "defined 2 times") {
		t.Fatalf("double definition not caught:\n%s", rep)
	}
}

func TestStrictSSAUndominatedUse(t *testing.T) {
	f := mustParse(t, `
func udom(c) {
b0:
	c = param 0
	br c b1 b2
b1:
	x = 1
	jmp b3
b2:
	z = 2
	jmp b3
b3:
	ret x
}
`)
	u := &Unit{SSA: f}
	rep := &Report{}
	strictSSAPass{}.Run(u, rep)
	if !hasDiag(rep, "strict-ssa", "not dominated by its definition") {
		t.Fatalf("undominated use not caught:\n%s", rep)
	}
}

func TestStrictSSAAcceptsBuildOutput(t *testing.T) {
	for _, fold := range []bool{true, false} {
		f := compileSSA(t, loopSrc, fold)
		u := &Unit{SSA: f}
		rep := &Report{}
		strictSSAPass{}.Run(u, rep)
		if rep.Failed() {
			t.Fatalf("fold=%v: clean SSA flagged:\n%s", fold, rep)
		}
	}
}

func TestLivenessCrossCheckAgrees(t *testing.T) {
	f := compileSSA(t, loopSrc, true)
	u := &Unit{SSA: f}
	if diags := CrossCheckLiveness(u, f, liveness.Compute(f)); len(diags) != 0 {
		t.Fatalf("cross-check disagrees on clean input: %v", diags)
	}
}

// TestLivenessCrossCheckCatchesCorruption corrupts liveness without
// touching its sets: it cross-checks f against the Info of a copy of f
// with one use deleted. The deleted use is the only one of a name that is
// live into its block but not out of it, so the copy's Info must miss
// that name at the block's entry.
func TestLivenessCrossCheckCatchesCorruption(t *testing.T) {
	f := compileSSA(t, loopSrc, true)
	u := &Unit{SSA: f}
	live := liveness.Compute(f)

	g := f.Clone()
	bid, v := ir.NoBlock, ir.NoVar
	for _, b := range g.Blocks {
		uses := map[ir.VarID]int{}
		for _, in := range b.Instrs {
			if in.Op != ir.OpPhi {
				for _, a := range in.Args {
					uses[a]++
				}
			}
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpPhi || len(in.Args) == 0 {
				continue
			}
			if a := in.Args[0]; uses[a] == 1 && live.LiveIn(b.ID, a) && !live.LiveOut(b.ID, a) {
				in.Args = in.Args[1:]
				bid, v = b.ID, a
				break
			}
		}
		if v != ir.NoVar {
			break
		}
	}
	if v == ir.NoVar {
		t.Fatal("no lone live-in use to delete")
	}

	diags := CrossCheckLiveness(u, f, liveness.Compute(g))
	for _, d := range diags {
		if d.Block == bid && len(d.Vars) == 1 && d.Vars[0] == v &&
			strings.Contains(d.Msg, "live-in disagreement: iterative=false naive=true") {
			return
		}
	}
	t.Fatalf("deleted use of %s in b%d not caught: %v", f.VarName(v), bid, diags)
}

func hasDiag(rep *Report, pass, substr string) bool {
	for _, d := range rep.Diags {
		if d.Pass == pass && strings.Contains(d.Msg, substr) {
			return true
		}
	}
	return false
}

// interferingPair returns two SSA names mapped to different outputs that
// the auditor's own graph says interfere.
func interferingPair(t *testing.T, u *Unit) (ir.VarID, ir.VarID) {
	t.Helper()
	g, _ := u.buildInterference()
	nm := u.NameMap
	if nm == nil {
		nm = make([]ir.VarID, u.SSA.NumVars())
		for v := range nm {
			nm[v] = ir.VarID(v)
		}
		u.NameMap = nm
	}
	for a := 0; a < u.SSA.NumVars(); a++ {
		for b := a + 1; b < u.SSA.NumVars(); b++ {
			if nm[a] != nm[b] && g.Interferes(ir.VarID(a), ir.VarID(b)) {
				return ir.VarID(a), ir.VarID(b)
			}
		}
	}
	t.Fatal("no interfering pair available to mutate")
	return 0, 0
}

// mergeInMap rewires u.NameMap so a's and b's classes share one output
// name — the deliberate coalescer bug the auditor must catch.
func mergeInMap(u *Unit, a, b ir.VarID) {
	ra, rb := u.NameMap[a], u.NameMap[b]
	for v := range u.NameMap {
		if u.NameMap[v] == rb {
			u.NameMap[v] = ra
		}
	}
}

// TestMutationCatchesBrokenCoalescer is the ISSUE's mutation gate: for
// every pipeline, force two interfering names into one class and require
// a coalescing-safety diagnostic naming both variables.
func TestMutationCatchesBrokenCoalescer(t *testing.T) {
	build := func(t *testing.T, algo string) *Unit {
		switch algo {
		case "standard":
			f := compileSSA(t, clashSrc, true)
			u := &Unit{Algo: algo, SSA: f.Clone()}
			out := f
			ssa.DestructStandard(out)
			u.Out = out
			return u
		case "new":
			f := compileSSA(t, loopSrc, true)
			u := &Unit{Algo: algo, SSA: f.Clone()}
			out := f
			cs := core.Coalesce(out, core.Options{RecordNameMap: true})
			u.Out, u.NameMap = out, cs.NameMap
			return u
		case "briggs", "briggs*":
			f := compileSSA(t, loopSrc, false)
			u := &Unit{Algo: algo, SSA: f.Clone()}
			out := f
			joinMap := ifgraph.JoinPhiWebs(out)
			gs := ifgraph.Coalesce(out, ifgraph.Options{Improved: algo == "briggs*", RecordNameMap: true})
			for v := range joinMap {
				joinMap[v] = gs.NameMap[joinMap[v]]
			}
			u.Out, u.NameMap = out, joinMap
			return u
		}
		t.Fatalf("unknown algo %s", algo)
		return nil
	}

	for _, algo := range []string{"standard", "new", "briggs", "briggs*"} {
		t.Run(algo, func(t *testing.T) {
			u := build(t, algo)

			// The unmodified pipeline must audit clean.
			rep := RunAll(u, Full)
			if rep.Failed() {
				t.Fatalf("unmodified %s pipeline flagged:\n%s", algo, rep)
			}

			// Break it: merge an interfering pair in the name map.
			a, b := interferingPair(t, u)
			mergeInMap(u, a, b)
			rep = &Report{}
			coalescingPass{}.Run(u, rep)
			if !rep.Failed() {
				t.Fatalf("%s: merged interfering %s/%s but audit stayed clean",
					algo, u.SSA.VarName(a), u.SSA.VarName(b))
			}
			found := false
			for _, d := range rep.Diags {
				names := strings.Join(d.VarNames, ",")
				if d.Pass == "coalescing-safety" &&
					strings.Contains(names, u.SSA.VarName(a)) &&
					strings.Contains(names, u.SSA.VarName(b)) {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s: no diagnostic names both %s and %s:\n%s",
					algo, u.SSA.VarName(a), u.SSA.VarName(b), rep)
			}
		})
	}
}

// TestHazardClassification pins the textbook failure labels on the two
// classic SSA-destruction traps from the adversarial corpus shapes.
func TestHazardClassification(t *testing.T) {
	t.Run("lost-copy", func(t *testing.T) {
		f := mustParse(t, `
func lost(n) {
b0:
	n = param 0
	x0 = 0
	one = 1
	jmp b1
b1:
	d = phi(b0:x0, b1:a)
	a = add d, one
	c = cmplt a, n
	br c b1 b2
b2:
	ret d
}
`)
		u := &Unit{Algo: "test", SSA: f}
		d := findVar(t, f, "d")
		a := findVar(t, f, "a")
		u.NameMap = identity(f)
		mergeInMap(u, d, a)
		rep := &Report{}
		coalescingPass{}.Run(u, rep)
		if !hasHazard(rep, "lost-copy") {
			t.Fatalf("lost-copy hazard not labeled:\n%s", rep)
		}
	})
	t.Run("swap", func(t *testing.T) {
		f := mustParse(t, `
func swap(n) {
b0:
	n = param 0
	x0 = 1
	y0 = 2
	k0 = 0
	one = 1
	jmp b1
b1:
	x1 = phi(b0:x0, b1:y1)
	y1 = phi(b0:y0, b1:x1)
	k1 = phi(b0:k0, b1:k2)
	k2 = add k1, one
	c = cmplt k2, n
	br c b1 b2
b2:
	r = add x1, y1
	ret r
}
`)
		u := &Unit{Algo: "test", SSA: f}
		x1 := findVar(t, f, "x1")
		y1 := findVar(t, f, "y1")
		u.NameMap = identity(f)
		mergeInMap(u, x1, y1)
		rep := &Report{}
		coalescingPass{}.Run(u, rep)
		if !hasHazard(rep, "swap") {
			t.Fatalf("swap hazard not labeled:\n%s", rep)
		}
	})
}

func identity(f *ir.Func) []ir.VarID {
	nm := make([]ir.VarID, f.NumVars())
	for v := range nm {
		nm[v] = ir.VarID(v)
	}
	return nm
}

func findVar(t *testing.T, f *ir.Func, name string) ir.VarID {
	t.Helper()
	for v, n := range f.VarNames {
		if n == name {
			return ir.VarID(v)
		}
	}
	t.Fatalf("no variable %q", name)
	return 0
}

func hasHazard(rep *Report, hazard string) bool {
	for _, d := range rep.Diags {
		if d.Hazard == hazard {
			return true
		}
	}
	return false
}

// TestTranslationValidateCatchesMiscompile feeds the validator an output
// function that genuinely computes something else.
func TestTranslationValidateCatchesMiscompile(t *testing.T) {
	f := compileSSA(t, clashSrc, true)
	out := f.Clone()
	ssa.DestructStandard(out)
	// Sabotage: flip a sub into an add.
	sabotaged := false
	for _, b := range out.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpSub {
				b.Instrs[i].Op = ir.OpAdd
				sabotaged = true
			}
		}
	}
	if !sabotaged {
		t.Fatal("no sub instruction to sabotage")
	}
	u := &Unit{Algo: "standard", SSA: f, Out: out}
	rep := RunAll(u, Full)
	if !hasDiag(rep, "translation-validate", "changed behavior") {
		t.Fatalf("miscompile not caught:\n%s", rep)
	}
}

// TestStructuralGate: a malformed output function must surface as a
// structural diagnostic, not a crash in a later pass.
func TestStructuralGate(t *testing.T) {
	f := compileSSA(t, clashSrc, true)
	out := f.Clone()
	ssa.DestructStandard(out)
	out.Blocks[0].Succs = append(out.Blocks[0].Succs, 99)
	u := &Unit{Algo: "standard", SSA: f, Out: out}
	rep := RunAll(u, Full)
	if !hasDiag(rep, "structural", "fails ir.Verify") {
		t.Fatalf("structural failure not reported:\n%s", rep)
	}
}

// TestReportRendering covers the Diag/Report string forms.
func TestReportRendering(t *testing.T) {
	d := Diag{Pass: "p", Func: "f", Block: 2, Instr: 3,
		VarNames: []string{"x", "y"}, Hazard: "swap", Msg: "boom"}
	s := d.String()
	for _, want := range []string{"[p]", "f b2.3", "{x, y}", "(swap hazard)", "boom"} {
		if !strings.Contains(s, want) {
			t.Errorf("Diag.String() = %q missing %q", s, want)
		}
	}
	rep := &Report{Diags: []Diag{d}}
	rep.skip("q", "too big")
	if !strings.Contains(rep.String(), "[skipped] q: too big") {
		t.Errorf("Report.String() = %q", rep.String())
	}
	if !rep.Failed() {
		t.Error("Failed() with a diag should be true")
	}
}
