// Package lint is the project's static-analysis framework: a stdlib-only
// loader (go/parser + go/types) plus a suite of analyzers that prove the
// repository's structural invariants at lint time — the same philosophy
// the paper applies to interference (replace an expensive general
// mechanism with a cheap structural check), applied to the codebase
// itself.
//
// The analyzers enforce disciplines that were previously only sampled
// dynamically by AllocsPerRun guards and -race runs:
//
//   - hotpath: functions annotated "// fc:hotpath" must not contain
//     heap-allocating constructs, and the check follows calls one level
//     into same-package callees;
//   - epochstamp: generation-stamped scratch tables (ARCHITECTURE.md,
//     "The epoch-stamped scratch idiom") must bump, guard, and compare
//     their epoch counters correctly ("// fc:epoch" / "// fc:stamp");
//   - nilrecorder: types annotated "// fc:niloff" (nil receiver means
//     "off") must nil-guard or delegate in every exported method, and
//     other packages must not reach into their fields;
//   - metricsdoc: every metric and phase name registered in code must be
//     documented in OBSERVABILITY.md.
//
// A finding can be acknowledged in place with a "// fc:lint-ok" comment
// on the offending line (or the line above); the comment should say why
// the construct is intentional — typically a deliberately cold path
// inside an annotated function.
//
// cmd/fclint is the command-line driver; it also runs DocFlags, the
// doc-transcript flag check.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned at file:line:col.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding the way compilers do.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker, run once per root package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries everything one analyzer run over one package needs.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package

	// DocRoot is the directory holding the documentation files the
	// doc-facing analyzers check (OBSERVABILITY.md). Defaults to the
	// module root; fixture tests point it at the fixture directory.
	DocRoot string

	diags *[]Diagnostic
}

// Reportf records a finding at pos unless an fc:lint-ok comment on the
// same line (or the line above) acknowledges it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Prog.Fset.Position(pos)
	if p.Pkg.suppressed(p.Prog.Fset, position.Filename, position.Line) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers is the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{HotPath, EpochStamp, NilRecorder, MetricsDoc}
}

// Config configures Run.
type Config struct {
	// Analyzers selects the checkers; nil means Analyzers().
	Analyzers []*Analyzer

	// DocRoot overrides the directory for documentation lookups
	// (metricsdoc); empty means the module root.
	DocRoot string
}

// Run executes the analyzers over the program's root packages and
// returns the findings sorted by position.
func (prog *Program) Run(cfg Config) []Diagnostic {
	as := cfg.Analyzers
	if as == nil {
		as = Analyzers()
	}
	docRoot := cfg.DocRoot
	if docRoot == "" {
		docRoot = prog.ModuleRoot
	}
	var diags []Diagnostic
	for _, pkg := range prog.Roots {
		for _, a := range as {
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, DocRoot: docRoot, diags: &diags}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// suppressed reports whether file:line (or the line above) carries an
// fc:lint-ok acknowledgement. The per-file line sets are built lazily.
func (p *Package) suppressed(fset *token.FileSet, filename string, line int) bool {
	if p.okLines == nil {
		p.okLines = map[string]map[int]bool{}
		for _, f := range p.Files {
			name := fset.Position(f.Pos()).Filename
			lines := map[int]bool{}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.Contains(c.Text, "fc:lint-ok") {
						lines[fset.Position(c.Pos()).Line] = true
					}
				}
			}
			p.okLines[name] = lines
		}
	}
	lines := p.okLines[filename]
	return lines[line] || lines[line-1]
}

// hasDirective reports whether the comment group contains the given
// fc: directive on a line of its own (prefix match, so arguments like
// "fc:stamp epoch" work).
func hasDirective(cg *ast.CommentGroup, directive string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// directiveArg returns the argument of "// fc:<name> <arg>" in the
// comment group, or "".
func directiveArg(cg *ast.CommentGroup, directive string) string {
	if cg == nil {
		return ""
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if rest, ok := strings.CutPrefix(text, directive+" "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// collectAnnotations builds the cross-package annotation indexes after
// loading: currently the fc:niloff type set (the nilrecorder analyzer
// needs it at call sites in other packages).
func (prog *Program) collectAnnotations() {
	prog.nilOff = map[*types.TypeName]bool{}
	for _, pkg := range prog.All {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					if !hasDirective(ts.Doc, "fc:niloff") && !hasDirective(gd.Doc, "fc:niloff") {
						continue
					}
					if tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
						prog.nilOff[tn] = true
					}
				}
			}
		}
	}
}
