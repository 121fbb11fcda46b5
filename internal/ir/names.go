package ir

import "strconv"

// NameBuf names a pass's new variables from one buffer: NewVar and
// NewVarNumbered write each name's bytes to it, and Flush installs every
// name as a substring of a single string, so naming n variables
// allocates once instead of n times. Until Flush the new names read as
// "". The zero value is ready to use; a pass keeps one in its scratch.
type NameBuf struct {
	buf  []byte
	vars []VarID
	ends []int
}

// NewVar creates a variable in f named name, installed by Flush.
//
// fc:hotpath
func (nb *NameBuf) NewVar(f *Func, name string) VarID {
	nb.buf = append(nb.buf, name...)
	return nb.add(f)
}

// NewVarNumbered creates a variable in f named base.n, installed by
// Flush.
//
// fc:hotpath
func (nb *NameBuf) NewVarNumbered(f *Func, base string, n int) VarID {
	nb.buf = append(append(nb.buf, base...), '.')
	nb.buf = strconv.AppendInt(nb.buf, int64(n), 10)
	return nb.add(f)
}

func (nb *NameBuf) add(f *Func) VarID {
	v := VarID(len(f.VarNames))
	f.VarNames = append(f.VarNames, "")
	nb.vars = append(nb.vars, v)
	nb.ends = append(nb.ends, len(nb.buf))
	return v
}

// Flush installs the names recorded since the last Flush or Reset in f,
// which must be the function they were recorded for.
//
// fc:hotpath
func (nb *NameBuf) Flush(f *Func) {
	s, start := string(nb.buf), 0
	for i, v := range nb.vars {
		f.VarNames[v] = s[start:nb.ends[i]]
		start = nb.ends[i]
	}
	nb.Reset()
}

// Reset drops the names recorded since the last Flush.
func (nb *NameBuf) Reset() {
	nb.buf, nb.vars, nb.ends = nb.buf[:0], nb.vars[:0], nb.ends[:0]
}
