package ir

import (
	"fmt"
	"strings"
	"testing"
)

// buildDiamond constructs:
//
//	b0: x=1; br c -> b1 b2
//	b1: y=2; jmp b3
//	b2: y=3; jmp b3
//	b3: ret y
func buildDiamond(t *testing.T) (*Func, VarID, VarID, VarID) {
	t.Helper()
	f := NewFunc("diamond")
	x := f.NewVar("x")
	y := f.NewVar("y")
	c := f.NewVar("c")
	bld := NewBuilder(f)
	b1, b2, b3 := bld.NewBlock(), bld.NewBlock(), bld.NewBlock()
	bld.Const(x, 1)
	bld.Const(c, 0)
	bld.Br(c, b1, b2)
	bld.SetBlock(b1)
	bld.Const(y, 2)
	bld.Jmp(b3)
	bld.SetBlock(b2)
	bld.Const(y, 3)
	bld.Jmp(b3)
	bld.SetBlock(b3)
	bld.Ret(y)
	return f, x, y, c
}

func TestVerifyDiamond(t *testing.T) {
	f, _, _, _ := buildDiamond(t)
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	f := NewFunc("bad")
	x := f.NewVar("x")
	b := f.Block(f.Entry)
	b.Instrs = append(b.Instrs, Instr{Op: OpConst, Def: x, Const: 1})
	if err := f.Verify(); err == nil {
		t.Fatal("Verify accepted block without terminator")
	}
}

func TestVerifyCatchesDanglingEdge(t *testing.T) {
	f, _, _, _ := buildDiamond(t)
	f.Blocks[0].Succs[0] = 99
	if err := f.Verify(); err == nil {
		t.Fatal("Verify accepted dangling successor")
	}
}

func TestVerifyCatchesPhiArity(t *testing.T) {
	f, _, y, _ := buildDiamond(t)
	Phi(f.Blocks[3], y, []VarID{y}) // b3 has two preds, φ has one arg
	if err := f.Verify(); err == nil {
		t.Fatal("Verify accepted φ with wrong arity")
	}
}

func TestVerifyCatchesPhiAfterBody(t *testing.T) {
	f, x, y, _ := buildDiamond(t)
	b3 := f.Blocks[3]
	phi := Instr{Op: OpPhi, Def: x, Args: []VarID{y, y}}
	// Insert φ after the first (non-φ) instruction.
	b3.Instrs = append([]Instr{b3.Instrs[0], phi}, b3.Instrs[1:]...)
	if err := f.Verify(); err == nil {
		t.Fatal("Verify accepted φ after non-φ instruction")
	}
}

func TestVerifySSADuplicateEdge(t *testing.T) {
	// Both branch targets the same block: legal in plain IR, rejected
	// once the function is flagged as SSA.
	f := NewFunc("dup")
	c := f.NewVar("c")
	bld := NewBuilder(f)
	b1 := bld.NewBlock()
	bld.Const(c, 1)
	bld.Br(c, b1, b1)
	bld.SetBlock(b1)
	bld.Ret(c)
	if err := f.Verify(); err != nil {
		t.Fatalf("plain IR with duplicate edge rejected: %v", err)
	}
	f.IsSSA = true
	err := f.Verify()
	if err == nil {
		t.Fatal("SSA Verify accepted duplicate edge")
	}
	if !strings.Contains(err.Error(), "duplicate edge") {
		t.Fatalf("wrong error: %v", err)
	}
}

func TestVerifySSADuplicateDef(t *testing.T) {
	f, _, _, _ := buildDiamond(t) // b0 defines x then c, both once
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	f.IsSSA = true
	if err := f.Verify(); err != nil {
		t.Fatalf("SSA Verify rejected single-def function: %v", err)
	}
	// Redefine x inside b0.
	b0 := f.Blocks[0]
	x := b0.Instrs[0].Def
	b0.Instrs = append([]Instr{{Op: OpConst, Def: x, Const: 7}}, b0.Instrs...)
	err := f.Verify()
	if err == nil {
		t.Fatal("SSA Verify accepted block defining a name twice")
	}
	if !strings.Contains(err.Error(), "defines x twice") {
		t.Fatalf("wrong error: %v", err)
	}
	f.IsSSA = false
	if err := f.Verify(); err != nil {
		t.Fatalf("plain IR with redefinition rejected: %v", err)
	}
}

func TestCloneCopiesIsSSA(t *testing.T) {
	f, _, _, _ := buildDiamond(t)
	f.IsSSA = true
	if !f.Clone().IsSSA {
		t.Fatal("Clone dropped IsSSA")
	}
}

func TestRemoveUnreachable(t *testing.T) {
	f, _, _, _ := buildDiamond(t)
	dead := f.NewBlock()
	deadVar := f.NewVar("d")
	dead.Instrs = append(dead.Instrs,
		Instr{Op: OpConst, Def: deadVar, Const: 9},
		Instr{Op: OpJmp, Def: NoVar})
	f.AddEdge(dead.ID, 3) // dead -> b3, giving b3 a third pred
	Phi(f.Blocks[3], deadVar, []VarID{deadVar, deadVar, deadVar})

	if got := f.RemoveUnreachable(); got != 1 {
		t.Fatalf("RemoveUnreachable = %d, want 1", got)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify after removal: %v", err)
	}
	if len(f.Blocks) != 4 {
		t.Fatalf("got %d blocks, want 4", len(f.Blocks))
	}
	// The φ in b3 must have dropped the dead arg.
	b3 := f.Blocks[3]
	if b3.NumPhis() != 1 || len(b3.Instrs[0].Args) != 2 {
		t.Fatalf("φ args not pruned: %v", b3.Instrs[0])
	}
}

func TestRemoveUnreachableNoop(t *testing.T) {
	f, _, _, _ := buildDiamond(t)
	if got := f.RemoveUnreachable(); got != 0 {
		t.Fatalf("RemoveUnreachable = %d, want 0", got)
	}
}

func TestSplitCriticalEdges(t *testing.T) {
	// b0: br -> b1, b2 ; b1 -> b2 ; b2: ret
	// Edge b0->b2 is critical (b0 has 2 succs, b2 has 2 preds).
	f := NewFunc("crit")
	c := f.NewVar("c")
	bld := NewBuilder(f)
	b1, b2 := bld.NewBlock(), bld.NewBlock()
	bld.Const(c, 1)
	bld.Br(c, b1, b2)
	bld.SetBlock(b1)
	bld.Jmp(b2)
	bld.SetBlock(b2)
	bld.Ret(c)

	if got := f.SplitCriticalEdges(); got != 1 {
		t.Fatalf("SplitCriticalEdges = %d, want 1", got)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// No critical edges remain.
	for _, b := range f.Blocks {
		if len(b.Succs) < 2 {
			continue
		}
		for _, s := range b.Succs {
			if len(f.Blocks[s].Preds) > 1 {
				t.Fatalf("critical edge b%d->b%d remains", b.ID, s)
			}
		}
	}
}

func TestSplitCriticalEdgesParallel(t *testing.T) {
	// Both branch targets are the same block: two parallel critical edges.
	f := NewFunc("par")
	c := f.NewVar("c")
	bld := NewBuilder(f)
	b1 := bld.NewBlock()
	bld.Const(c, 1)
	bld.Br(c, b1, b1)
	bld.SetBlock(b1)
	bld.Ret(c)

	if got := f.SplitCriticalEdges(); got != 2 {
		t.Fatalf("SplitCriticalEdges = %d, want 2", got)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	f, x, _, _ := buildDiamond(t)
	g := f.Clone()
	g.Blocks[0].Instrs[0].Const = 42
	g.Blocks[0].Instrs[0].Def = x
	g.VarNames[0] = "mutated"
	if f.Blocks[0].Instrs[0].Const == 42 {
		t.Fatal("Clone shares instruction storage")
	}
	if f.VarNames[0] == "mutated" {
		t.Fatal("Clone shares name table")
	}

	// Appending to one cloned block's lists leaves every other block,
	// and the original, as they were.
	text := f.String()
	appendsStayPut(t, "clone", f.Clone())
	if f.String() != text {
		t.Fatal("appending to a clone changed the original")
	}
}

// appendsStayPut appends to each block's Instrs, Succs and Preds, and to
// every Args, in turn, and fails if any other block changed.
func appendsStayPut(t *testing.T, what string, f *Func) {
	t.Helper()
	snap := func() []string {
		s := make([]string, len(f.Blocks))
		for i, b := range f.Blocks {
			s[i] = fmt.Sprint(b.Instrs, b.Succs, b.Preds)
		}
		return s
	}
	for i, b := range f.Blocks {
		before := snap()
		for j := range b.Instrs {
			b.Instrs[j].Args = append(b.Instrs[j].Args, 99)
		}
		b.Instrs = append(b.Instrs, Instr{Op: OpConst, Def: 99, Const: 99})
		b.Succs = append(b.Succs, 99)
		b.Preds = append(b.Preds, 99)
		after := snap()
		for j := range f.Blocks {
			if j != i && after[j] != before[j] {
				t.Fatalf("%s: appending to b%d's lists changed b%d:\n%s\n%s", what, i, j, before[j], after[j])
			}
		}
	}
}

// buildLoop builds, with one Builder, a loop whose head has two
// predecessors and whose body has a branch: every kind of list the
// Builder stages, in several blocks, with pad more instructions in the
// body. With seal, the function is sealed.
func buildLoop(seal bool, pad int) *Func {
	f := &Func{Name: "loop"}
	bld := NewBuilder(f)
	i, n, c, one := bld.NewVar("i"), bld.NewVar("n"), bld.NewVar(""), bld.NewVar("")
	head, body, odd, latch, exit := bld.NewBlock(), bld.NewBlock(), bld.NewBlock(), bld.NewBlock(), bld.NewBlock()
	f.Params = []VarID{n}
	bld.Param(n, 0)
	bld.Const(i, 0)
	bld.Const(one, 1)
	bld.Jmp(head)
	bld.SetBlock(head)
	bld.Binop(OpCmpLT, c, i, n)
	bld.Br(c, body, exit)
	bld.SetBlock(body)
	for range pad {
		bld.Binop(OpAdd, c, i, n)
	}
	bld.Binop(OpRem, c, i, n)
	bld.Br(c, odd, latch)
	bld.SetBlock(odd)
	bld.Binop(OpAdd, i, i, one)
	bld.Jmp(latch)
	bld.SetBlock(latch)
	bld.Binop(OpAdd, i, i, one)
	bld.Jmp(head)
	bld.SetBlock(exit)
	bld.Ret(i)
	if seal {
		bld.Seal()
	}
	return f
}

// TestBuilderArgsDoNotOverlap checks that the argument lists the
// Builder carves from one chunk stay apart when a pass appends to one.
func TestBuilderArgsDoNotOverlap(t *testing.T) {
	f := NewFunc("args")
	a, b, c := f.NewVar("a"), f.NewVar("b"), f.NewVar("c")
	bld := NewBuilder(f)
	bld.Copy(a, b)
	bld.Binop(OpAdd, c, a, b)
	first, second := &f.Blocks[0].Instrs[0], &f.Blocks[0].Instrs[1]
	if cap(first.Args) != len(first.Args) {
		t.Fatalf("carved Args has cap %d, len %d", cap(first.Args), len(first.Args))
	}
	first.Args = append(first.Args, c)
	if second.Args[0] != a || second.Args[1] != b {
		t.Fatalf("appending to one instruction's Args rewrote the next: %v", second.Args)
	}

	// Every list the Builder staged or sealed is capped as well: a block
	// it left, or a sealed one, never shares room with a neighbour, also
	// when the function is too large for its staging to be kept.
	for _, pad := range []int{0, 3000} {
		for _, seal := range []bool{false, true} {
			f := buildLoop(seal, pad)
			if err := f.Verify(); err != nil {
				t.Fatalf("seal=%v pad=%d: %v", seal, pad, err)
			}
			appendsStayPut(t, fmt.Sprintf("seal=%v pad=%d", seal, pad), f)
		}
	}
}

func TestCounts(t *testing.T) {
	f, _, y, _ := buildDiamond(t)
	if got := f.CountCopies(); got != 0 {
		t.Fatalf("CountCopies = %d, want 0", got)
	}
	b1 := f.Blocks[1]
	b1.Instrs = append([]Instr{{Op: OpCopy, Def: y, Args: []VarID{y}}}, b1.Instrs...)
	if got := f.CountCopies(); got != 1 {
		t.Fatalf("CountCopies = %d, want 1", got)
	}
	Phi(f.Blocks[3], y, []VarID{y, y})
	if got := f.CountPhis(); got != 1 {
		t.Fatalf("CountPhis = %d, want 1", got)
	}
}

func TestStringRendering(t *testing.T) {
	f, _, _, _ := buildDiamond(t)
	s := f.String()
	for _, want := range []string{"func diamond", "b0:", "br c b1 b2", "ret y", "x = 1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
}

func TestOpPredicates(t *testing.T) {
	if !OpJmp.IsTerminator() || !OpBr.IsTerminator() || !OpRet.IsTerminator() {
		t.Fatal("terminator predicate wrong")
	}
	if OpAdd.IsTerminator() {
		t.Fatal("OpAdd is not a terminator")
	}
	if OpAStore.HasDef() || OpJmp.HasDef() || OpRet.HasDef() {
		t.Fatal("HasDef wrong for def-less ops")
	}
	if !OpCopy.HasDef() || !OpPhi.HasDef() || !OpALoad.HasDef() {
		t.Fatal("HasDef wrong for defining ops")
	}
}
