package analysis

import (
	"fmt"

	"fastcoalesce/internal/ir"
)

// strictSSAPass checks the strict-SSA discipline of the pre-destruction
// snapshot: every variable has at most one definition, every use is
// dominated by that definition, φ-nodes are well-formed, and nothing is
// live into the entry block (the paper's §2 restriction that entry
// initializations cover exactly live-in(b0) means no use can reach the
// entry undefined).
type strictSSAPass struct{}

func (strictSSAPass) Name() string { return "strict-ssa" }

func (strictSSAPass) Run(u *Unit, rep *Report) {
	if u.SSA == nil {
		rep.skip("strict-ssa", "no SSA snapshot")
		return
	}
	f := u.SSA
	reach := u.reachable()
	db, di, dc := u.defSites()

	// Unique definitions.
	for v := 0; v < f.NumVars(); v++ {
		if dc[v] > 1 {
			rep.Diags = append(rep.Diags, u.diag("strict-ssa", db[v], int(di[v]),
				[]ir.VarID{ir.VarID(v)}, "",
				fmt.Sprintf("variable defined %d times (strict SSA requires one)", dc[v])))
		}
	}

	// Every use dominated by its def. φ arguments are uses at the end of
	// the corresponding predecessor; ordinary uses sit at their own
	// instruction. The φ definition itself happens at the top of its
	// block, before any non-φ instruction.
	for _, b := range f.Blocks {
		if !reach.Has(int(b.ID)) {
			continue
		}
		nphi := b.NumPhis()
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpPhi {
				if len(b.Preds) == 0 {
					rep.Diags = append(rep.Diags, u.diag("strict-ssa", b.ID, i,
						[]ir.VarID{in.Def}, "", "φ-node in a block with no predecessors"))
					continue
				}
				for pi, a := range in.Args {
					pred := b.Preds[pi]
					d := db[a]
					if d == ir.NoBlock {
						rep.Diags = append(rep.Diags, u.diag("strict-ssa", b.ID, i,
							[]ir.VarID{a}, "",
							fmt.Sprintf("φ argument %d has no definition", pi)))
						continue
					}
					if !u.dominates(d, pred) {
						rep.Diags = append(rep.Diags, u.diag("strict-ssa", b.ID, i,
							[]ir.VarID{a}, "",
							fmt.Sprintf("φ argument %d (from b%d) not dominated by its definition in b%d",
								pi, pred, d)))
					}
				}
				continue
			}
			for _, a := range in.Args {
				d := db[a]
				if d == ir.NoBlock {
					rep.Diags = append(rep.Diags, u.diag("strict-ssa", b.ID, i,
						[]ir.VarID{a}, "",
						"use of a variable with no definition (would be live into the entry)"))
					continue
				}
				if d == b.ID {
					// Same-block use: the def must come earlier. di is the
					// first def, which is the only one when dc==1; φ defs
					// conceptually precede the whole body.
					defAt := int(di[a])
					if defAt >= i && !(defAt < nphi) {
						rep.Diags = append(rep.Diags, u.diag("strict-ssa", b.ID, i,
							[]ir.VarID{a}, "",
							fmt.Sprintf("use at b%d.%d precedes its definition at b%d.%d",
								b.ID, i, b.ID, defAt)))
					}
					continue
				}
				if !u.dominates(d, b.ID) {
					rep.Diags = append(rep.Diags, u.diag("strict-ssa", b.ID, i,
						[]ir.VarID{a}, "",
						fmt.Sprintf("use not dominated by its definition in b%d", d)))
				}
			}
		}
	}

	// Entry-block liveness: strictness means live-in(b0) is empty after
	// the restricted initializations. The iterative result is checked
	// here; LivenessCrossCheck validates that result independently.
	var vars []ir.VarID
	it := u.liveInfo().LiveInNames(f.Entry)
	for v, ok := it.Next(); ok; v, ok = it.Next() {
		vars = append(vars, v)
	}
	if len(vars) > 0 {
		rep.Diags = append(rep.Diags, u.diag("strict-ssa", f.Entry, -1, vars, "",
			"variables live into the entry block (strictness not enforced)"))
	}
}
