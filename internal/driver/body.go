package driver

import (
	"bytes"
	"fmt"
	"strconv"
	"sync/atomic"

	"fastcoalesce/internal/cache"
	"fastcoalesce/internal/lang"
)

// Reply is SubmitBody's answer: the output of every function in the
// body, in input order.
type Reply struct {
	// Texts holds each function's canonical output text (what
	// ir.Func.String prints). The slices may be the cache's shared
	// Entry.Text and must be treated as read-only.
	Texts [][]byte

	// Hit reports that every function was answered from the cache.
	Hit bool

	// Err is why the body was refused: an unknown format, or a parse,
	// compile or verify error. It is nil when Texts is the answer.
	Err error
}

// SubmitBody compiles one raw request body through the pool: a
// kernel-language source of any number of functions, or one IR
// function. format is "kl", "ir", or "" to sniff (IR text carries block
// labels). name prefixes the jobs' names, which errors and traces carry.
// The error return is transport-only, as Submit's: ErrOverloaded or
// ErrClosed, with input failures in Reply.Err.
//
// With a cache and no audit, a body whose every function compiled is
// remembered in the body memo: SHA-256 over the configuration
// fingerprint, the raw format value and the raw body names the cache
// keys of its functions. A repeat of it is answered from those entries'
// texts, with no front end, no canonical print or hash and no re-print.
// A remembered body whose function was evicted is compiled again. Source
// bodies compile on a pooled front-end scratch, and the functions they
// yield are the pool's own, so a miss compiles them in place.
func (p *ShardPool) SubmitBody(body []byte, format, name string) (Reply, error) {
	var isIR bool
	switch format {
	case "ir":
		isIR = true
	case "kl", "":
		isIR = format == "" && looksLikeIR(body)
	default:
		return Reply{Err: fmt.Errorf("unknown format %q (want kl or ir)", format)}, nil
	}

	var sum cache.Key
	if p.memo != nil {
		sum = p.bodySum(format, body)
		if rep, ok := p.fromMemo(sum); ok {
			return rep, nil
		}
	}

	var jobs []Job
	if isIR {
		jobs = []Job{{Name: name, Src: string(body), IR: true}}
	} else {
		sc := p.getLang()
		funcs, err := lang.CompileScratch(string(body), sc)
		p.putLang(sc)
		if err != nil {
			return Reply{Err: err}, nil
		}
		jobs = make([]Job, len(funcs))
		for i, f := range funcs {
			jobs[i] = Job{Name: name + ":" + f.Name, Func: f, owned: true}
		}
	}

	rep := Reply{Texts: make([][]byte, len(jobs)), Hit: true}
	var keys []cache.Key
	if p.memo != nil {
		keys = make([]cache.Key, len(jobs))
	}
	for i, j := range jobs {
		res, key, err := p.submit(j)
		if err != nil {
			return Reply{}, err
		}
		if res.Err != nil {
			return Reply{Err: res.Err}, nil
		}
		rep.Hit = rep.Hit && res.Cached
		rep.Texts[i] = res.text
		if res.text == nil {
			rep.Texts[i] = res.Func.AppendText(nil)
		}
		if keys != nil {
			keys[i] = key
		}
	}
	if p.memo != nil {
		p.memo.put(sum, keys)
	}
	return rep, nil
}

// bodySum hashes the configuration fingerprint, the format value and the
// body into the body's memo key, in a pooled buffer. The format is one
// of three known values, so the NUL after it keeps the fields apart.
func (p *ShardPool) bodySum(format string, body []byte) cache.Key {
	bufp := p.canon.Get().(*[]byte)
	buf := append(append(append(append((*bufp)[:0], p.cfg.fp...), format...), 0), body...)
	sum := cache.Sum(buf)
	*bufp = buf
	p.canon.Put(bufp)
	return sum
}

// fromMemo answers a remembered body from the cache. It reports false
// when the body is not remembered or one of its functions has been
// evicted; the body is then compiled as if new. A memo hit counts as
// the warm hits of Submit would: one request, one job and one cache hit
// per function.
func (p *ShardPool) fromMemo(sum cache.Key) (Reply, bool) {
	keys, ok := p.memo.get(sum)
	if !ok {
		return Reply{}, false
	}
	texts := make([][]byte, len(keys))
	for i, k := range keys {
		ent, ok := p.cfg.Cache.Get(k)
		if !ok {
			return Reply{}, false
		}
		texts[i] = ent.Text
	}
	n := int64(len(keys))
	p.requests.Add(n)
	p.nRequests.Add(n)
	p.bm.jobs.Add(n)
	return Reply{Texts: texts, Hit: true}, true
}

// The body memo's bounds: a fixed table of memoSlots slots, each
// remembering one body of at most memoMaxFuncs functions, so the memo
// never holds more than memoSlots × memoMaxFuncs cache keys (2 MiB).
const (
	memoSlots    = 4096
	memoMaxFuncs = 16
)

// memoEntry is one remembered body: its hash and its functions' cache
// keys, in input order. Immutable once stored.
type memoEntry struct {
	sum  cache.Key
	keys []cache.Key
}

// bodyMemo is a direct-mapped table of remembered bodies. A slot is
// replaced whole, and a probe compares the full 32-byte hash, so a
// collision can only miss.
type bodyMemo [memoSlots]atomic.Pointer[memoEntry]

func (m *bodyMemo) slot(sum cache.Key) *atomic.Pointer[memoEntry] {
	return &m[shardIndex(sum)%memoSlots]
}

// get returns the cache keys remembered for sum.
func (m *bodyMemo) get(sum cache.Key) ([]cache.Key, bool) {
	if e := m.slot(sum).Load(); e != nil && e.sum == sum {
		return e.keys, true
	}
	return nil, false
}

// put remembers keys for sum, replacing the slot's previous body. A body
// of more than memoMaxFuncs functions is not remembered.
func (m *bodyMemo) put(sum cache.Key, keys []cache.Key) {
	if len(keys) <= memoMaxFuncs {
		m.slot(sum).Store(&memoEntry{sum: sum, keys: keys})
	}
}

// looksLikeIR sniffs the body format: IR text carries block labels at
// the start of a line ("b0:", "b12:"), the mini-language never does.
func looksLikeIR(body []byte) bool {
	for _, line := range bytes.Split(body, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) >= 3 && line[0] == 'b' && line[len(line)-1] == ':' {
			if _, err := strconv.ParseUint(string(line[1:len(line)-1]), 10, 32); err == nil {
				return true
			}
		}
	}
	return false
}
