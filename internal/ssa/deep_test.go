package ssa

import (
	"os"
	"os/exec"
	"runtime/debug"
	"testing"

	"fastcoalesce/internal/ir"
)

// ifChain builds n `if c { x = x + c }` statements in a row: every join
// is the next statement's head, so the joins form a chain n levels deep
// in the dominator tree.
func ifChain(n int) *ir.Func {
	f := ir.NewFunc("ifchain")
	c, x := f.NewVar("c"), f.NewVar("x")
	f.Params = []ir.VarID{c}
	cur := f.Blocks[f.Entry]
	cur.Instrs = []ir.Instr{
		{Op: ir.OpParam, Def: c, Const: 0},
		{Op: ir.OpConst, Def: x, Const: 0},
	}
	for i := 0; i < n; i++ {
		then, join := f.NewBlock(), f.NewBlock()
		cur.Instrs = append(cur.Instrs, ir.Instr{Op: ir.OpBr, Def: ir.NoVar, Args: []ir.VarID{c}})
		f.AddEdge(cur.ID, then.ID)
		f.AddEdge(cur.ID, join.ID)
		then.Instrs = []ir.Instr{
			{Op: ir.OpAdd, Def: x, Args: []ir.VarID{x, c}},
			{Op: ir.OpJmp, Def: ir.NoVar},
		}
		f.AddEdge(then.ID, join.ID)
		cur = join
	}
	cur.Instrs = append(cur.Instrs, ir.Instr{Op: ir.OpRet, Def: ir.NoVar, Args: []ir.VarID{x}})
	return f
}

// TestRenameDeepDominatorChain builds SSA for a dominator tree 15 000
// levels deep under a 1 MiB goroutine stack limit: renaming that
// recursed once per tree level overflows it. The build runs in a child
// process, so an overflow, which Go cannot recover from, fails this
// test alone.
func TestRenameDeepDominatorChain(t *testing.T) {
	const ifs = 15000
	if os.Getenv("FASTCOALESCE_DEEP_RENAME_CHILD") == "1" {
		debug.SetMaxStack(1 << 20)
		f := ifChain(ifs)
		st := Build(f, Options{Flavor: Pruned, FoldCopies: true})
		if err := f.Verify(); err != nil {
			t.Fatal(err)
		}
		if st.PhisInserted != ifs {
			t.Fatalf("%d φs inserted, want %d", st.PhisInserted, ifs)
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRenameDeepDominatorChain$")
	cmd.Env = append(os.Environ(), "FASTCOALESCE_DEEP_RENAME_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		if len(out) > 2000 {
			out = out[:2000]
		}
		t.Fatalf("SSA construction for %d chained ifs failed in the child process: %v\n%s", ifs, err, out)
	}
}
