package ir

// A parser for the textual form emitted by Func.String, so IR can be
// written by hand in tests, dumped from one tool run and fed to another,
// and round-tripped in golden tests.
//
// Variables and arrays are identified by name; a function whose name
// table contains duplicates (possible with shadowed source variables)
// does not round-trip and is rejected by Parse when detected. A name must
// be one Func.String can print back: a kernel-language identifier,
// optionally with '.' after its first byte, as SSA names such as x.3
// have. Mnemonics are names like any other: a line is a definition or a
// store exactly when it has an '=', so a variable called br or jmp reads
// back as itself.

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse reads the textual IR form produced by (*Func).String.
func Parse(src string) (*Func, error) {
	p := &irParser{
		vars: map[string]VarID{},
		arrs: map[string]ArrID{},
	}
	return p.parse(src)
}

type irParser struct {
	f    *Func
	vars map[string]VarID
	arrs map[string]ArrID
	// φ args keyed textually by predecessor block; resolved at the end.
	phiFix []phiFixup
	line   int
	err    error // the first bad name seen
}

type phiFixup struct {
	block BlockID
	idx   int
	args  []string // "b3:x"
	line  int
}

func (p *irParser) errf(format string, args ...any) error {
	return fmt.Errorf("ir: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

// v returns the variable called name, creating it on first sight; a name
// that does not print back records the parse's error.
func (p *irParser) v(name string) VarID {
	if id, ok := p.vars[name]; ok {
		return id
	}
	if !printable(name) && p.err == nil {
		p.err = p.errf("bad variable name %q", name)
	}
	id := p.f.NewVar(name)
	p.vars[name] = id
	return id
}

// arr is v for arrays.
func (p *irParser) arr(name string) ArrID {
	if id, ok := p.arrs[name]; ok {
		return id
	}
	if !printable(name) && p.err == nil {
		p.err = p.errf("bad array name %q", name)
	}
	id := p.f.NewArr(name)
	p.arrs[name] = id
	return id
}

// nameStart and nameByte mark the bytes that may start and continue a
// printable name: the kernel language's identifier bytes (each byte of a
// UTF-8 sequence taken as the Latin-1 rune of the same value), plus '.'
// after the start. A digit cannot start one, since x = 0 reads back as a
// constant.
var nameStart, nameByte = func() (start, cont [256]bool) {
	for b := range start {
		start[b] = unicode.IsLetter(rune(b)) || b == '_'
		cont[b] = start[b] || ('0' <= b && b <= '9') || b == '.'
	}
	return start, cont
}()

// printable reports whether name prints as text Parse reads back as the
// same name.
func printable(name string) bool {
	if name == "" || !nameStart[name[0]] {
		return false
	}
	for i := 1; i < len(name); i++ {
		if !nameByte[name[i]] {
			return false
		}
	}
	return true
}

// blockNum parses a block label such as "b3". The number must fit a
// BlockID.
func blockNum(tok string) (BlockID, bool) {
	if !strings.HasPrefix(tok, "b") {
		return 0, false
	}
	n, err := strconv.ParseInt(tok[1:], 10, 32)
	if err != nil || n < 0 {
		return 0, false
	}
	return BlockID(n), true
}

func (p *irParser) parse(src string) (*Func, error) {
	lines := strings.Split(src, "\n")
	var cur *Block
	type pendingEdge struct {
		from BlockID
		to   []BlockID
	}
	var edges []pendingEdge

	for i, raw := range lines {
		p.line = i + 1
		line := raw
		if c := strings.Index(line, ";"); c >= 0 {
			line = line[:c]
		}
		line = strings.TrimSpace(line)
		if line == "" || line == "}" {
			continue
		}

		if strings.HasPrefix(line, "func ") {
			if p.f != nil {
				return nil, p.errf("multiple functions in one input")
			}
			rest := strings.TrimPrefix(line, "func ")
			open := strings.Index(rest, "(")
			closeP := strings.LastIndex(rest, ")")
			if open < 0 || closeP < open {
				return nil, p.errf("malformed function header")
			}
			p.f = &Func{Name: strings.TrimSpace(rest[:open])}
			p.f.Entry = 0 // first block listed is the entry
			params := strings.TrimSpace(rest[open+1 : closeP])
			if params != "" {
				for _, prm := range strings.Split(params, ",") {
					prm = strings.TrimSpace(prm)
					if strings.HasSuffix(prm, "[]") {
						a := p.arr(strings.TrimSuffix(prm, "[]"))
						p.f.ArrParams = append(p.f.ArrParams, a)
					} else {
						v := p.v(prm)
						p.f.Params = append(p.f.Params, v)
					}
				}
			}
			if p.err != nil {
				return nil, p.err
			}
			continue
		}
		if p.f == nil {
			return nil, p.errf("instruction before function header")
		}

		if strings.HasSuffix(line, ":") {
			id, ok := blockNum(strings.TrimSuffix(line, ":"))
			if !ok {
				return nil, p.errf("bad block label %q", line)
			}
			// The parser creates every block up to the label. Func.String
			// gives each block a line of its own, so a label as large as
			// the input's line count cannot come from printed IR.
			if int(id) >= len(lines) {
				return nil, p.errf("block label %q out of range for %d lines of input", line, len(lines))
			}
			for BlockID(len(p.f.Blocks)) <= id {
				p.f.NewBlock()
			}
			cur = p.f.Blocks[id]
			continue
		}
		if cur == nil {
			return nil, p.errf("instruction outside a block")
		}

		in, succs, err := p.parseInstr(line, cur)
		if err == nil {
			err = p.err
		}
		if err != nil {
			return nil, err
		}
		cur.Instrs = append(cur.Instrs, in)
		if len(succs) > 0 {
			edges = append(edges, pendingEdge{from: cur.ID, to: succs})
		}
	}
	if p.f == nil {
		return nil, fmt.Errorf("ir: no function found")
	}

	// Materialize edges in source order so Preds ordering is stable.
	for _, e := range edges {
		for _, s := range e.to {
			if int(s) >= len(p.f.Blocks) {
				return nil, fmt.Errorf("ir: edge to undefined block b%d", s)
			}
			p.f.AddEdge(e.from, s)
		}
	}

	// Resolve φ arguments against the now-known predecessor lists.
	for _, fix := range p.phiFix {
		blk := p.f.Blocks[fix.block]
		in := &blk.Instrs[fix.idx]
		in.Args = make([]VarID, len(blk.Preds))
		if len(fix.args) != len(blk.Preds) {
			return nil, fmt.Errorf("ir: φ in b%d has %d args for %d preds",
				fix.block, len(fix.args), len(blk.Preds))
		}
		used := make([]bool, len(fix.args))
		for pi, pred := range blk.Preds {
			found := false
			for ai, spec := range fix.args {
				if used[ai] {
					continue
				}
				colon := strings.Index(spec, ":")
				if colon < 0 {
					return nil, fmt.Errorf("ir: bad φ arg %q", spec)
				}
				pb, ok := blockNum(spec[:colon])
				if !ok || pb != pred {
					continue
				}
				p.line = fix.line
				if in.Args[pi] = p.v(spec[colon+1:]); p.err != nil {
					return nil, p.err
				}
				used[ai] = true
				found = true
				break
			}
			if !found {
				return nil, fmt.Errorf("ir: φ in b%d missing arg for pred b%d", fix.block, pred)
			}
		}
	}

	// A hand-written .ir file with φ-nodes is declaring itself to be in SSA
	// form; hold it to the stricter SSA verification rules.
	if p.f.CountPhis() > 0 {
		p.f.IsSSA = true
	}
	if err := p.f.Verify(); err != nil {
		return nil, fmt.Errorf("ir: parsed function invalid: %w", err)
	}
	return p.f, nil
}

var opByName = func() map[string]Op {
	m := map[string]Op{}
	for op := Op(1); op < numOps; op++ {
		m[op.String()] = op
	}
	return m
}()

// parseInstr parses one instruction line. For terminators it also returns
// the successor blocks in order. A line with an '=' defines a variable or
// stores to an array; one without is a terminator.
func (p *irParser) parseInstr(line string, cur *Block) (Instr, []BlockID, error) {
	eq := strings.Index(line, "=")
	if eq < 0 {
		return p.parseTerminator(line)
	}
	lhs := strings.TrimSpace(line[:eq])
	rhs := strings.TrimSpace(line[eq+1:])

	// Array store: arr[idx] = v
	if open := strings.Index(lhs, "["); open >= 0 {
		closeB := strings.LastIndex(lhs, "]")
		if closeB < open {
			return Instr{}, nil, p.errf("bad store target %q", lhs)
		}
		arr := p.arr(strings.TrimSpace(lhs[:open]))
		idx := p.v(strings.TrimSpace(lhs[open+1 : closeB]))
		return Instr{Op: OpAStore, Def: NoVar, Args: []VarID{idx, p.v(rhs)}, Arr: arr}, nil, nil
	}

	def := p.v(lhs)

	// Constant.
	if c, err := strconv.ParseInt(rhs, 10, 64); err == nil {
		return Instr{Op: OpConst, Def: def, Const: c}, nil, nil
	}
	// param N
	if strings.HasPrefix(rhs, "param ") {
		n, err := strconv.Atoi(strings.TrimSpace(rhs[6:]))
		if err != nil {
			return Instr{}, nil, p.errf("bad param index %q", rhs)
		}
		return Instr{Op: OpParam, Def: def, Const: int64(n)}, nil, nil
	}
	// phi(b0:a, b1:b)
	if strings.HasPrefix(rhs, "phi(") && strings.HasSuffix(rhs, ")") {
		inner := rhs[4 : len(rhs)-1]
		var specs []string
		if strings.TrimSpace(inner) != "" {
			for _, s := range strings.Split(inner, ",") {
				specs = append(specs, strings.TrimSpace(s))
			}
		}
		p.phiFix = append(p.phiFix, phiFixup{
			block: cur.ID,
			idx:   len(cur.Instrs),
			args:  specs,
			line:  p.line,
		})
		return Instr{Op: OpPhi, Def: def}, nil, nil
	}
	// len(arr)
	if strings.HasPrefix(rhs, "len(") && strings.HasSuffix(rhs, ")") {
		return Instr{Op: OpALen, Def: def, Arr: p.arr(rhs[4 : len(rhs)-1])}, nil, nil
	}
	// Array load: arr[idx]
	if open := strings.Index(rhs, "["); open >= 0 && strings.HasSuffix(rhs, "]") &&
		!strings.ContainsAny(rhs[:open], " ,") {
		arr := p.arr(strings.TrimSpace(rhs[:open]))
		idx := p.v(strings.TrimSpace(rhs[open+1 : len(rhs)-1]))
		return Instr{Op: OpALoad, Def: def, Args: []VarID{idx}, Arr: arr}, nil, nil
	}

	rf := strings.Fields(strings.ReplaceAll(rhs, ",", " "))
	if len(rf) == 0 {
		return Instr{}, nil, p.errf("missing right-hand side %q", line)
	}
	if len(rf) == 1 {
		// Copy: x = y
		return Instr{Op: OpCopy, Def: def, Args: []VarID{p.v(rf[0])}}, nil, nil
	}
	op, ok := opByName[rf[0]]
	if !ok {
		return Instr{}, nil, p.errf("unknown operation %q", rf[0])
	}
	args := make([]VarID, 0, len(rf)-1)
	for _, a := range rf[1:] {
		args = append(args, p.v(a))
	}
	return Instr{Op: op, Def: def, Args: args}, nil, nil
}

// parseTerminator parses a jmp, br or ret line, with its successor
// blocks in order.
func (p *irParser) parseTerminator(line string) (Instr, []BlockID, error) {
	fields := strings.Fields(line)
	switch fields[0] {
	case "jmp":
		if len(fields) != 2 {
			return Instr{}, nil, p.errf("jmp wants one target")
		}
		t, ok := blockNum(fields[1])
		if !ok {
			return Instr{}, nil, p.errf("bad jmp target %q", fields[1])
		}
		return Instr{Op: OpJmp, Def: NoVar}, []BlockID{t}, nil
	case "br":
		if len(fields) != 4 {
			return Instr{}, nil, p.errf("br wants cond and two targets")
		}
		t1, ok1 := blockNum(fields[2])
		t2, ok2 := blockNum(fields[3])
		if !ok1 || !ok2 {
			return Instr{}, nil, p.errf("bad br targets")
		}
		return Instr{Op: OpBr, Def: NoVar, Args: []VarID{p.v(fields[1])}},
			[]BlockID{t1, t2}, nil
	case "ret":
		if len(fields) != 2 {
			return Instr{}, nil, p.errf("ret wants one value")
		}
		return Instr{Op: OpRet, Def: NoVar, Args: []VarID{p.v(fields[1])}}, nil, nil
	}
	return Instr{}, nil, p.errf("unrecognized instruction %q", line)
}
