package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// DocFlags keeps the documentation's shell transcripts honest: every
// `-flag` used in a fenced code block that invokes one of the repo's
// binaries must be a flag that binary actually declares. Stale docs are
// the usual failure mode of a README rewrite — a flag is renamed in code
// and the transcript keeps advertising the old name.
//
// cmd/fclint runs it alongside the analyzers. Flag sets are recovered by
// scanning cmd/<name>/main.go for flag.String/Bool/... declarations,
// which is exactly how the binaries define them — no binary is built.
// Commands whose main.go does not exist under root are skipped, so the
// check also runs inside reduced fixture trees.
func DocFlags(root string) ([]Diagnostic, error) {
	flags := map[string]map[string]bool{}
	for _, cmd := range docCmds {
		path := filepath.Join(root, "cmd", cmd, "main.go")
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		set := map[string]bool{}
		for _, m := range flagDecl.FindAllStringSubmatch(string(data), -1) {
			set[m[1]] = true
		}
		flags[cmd] = set
	}

	var diags []Diagnostic
	for _, doc := range docFiles {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		diags = append(diags, checkDocFlags(doc, string(data), flags)...)
	}
	return diags, nil
}

// docCmds are the binaries whose transcripts the docs may show.
var docCmds = []string{"coalesce", "coalesced", "experiments", "fclint"}

// docFiles are the markdown files whose fenced blocks are checked.
var docFiles = []string{"README.md", "OBSERVABILITY.md", "ARCHITECTURE.md", "EXPERIMENTS.md", "SERVING.md", "REGALLOC.md"}

// flagDecl matches flag declarations like flag.String("algo", ...).
var flagDecl = regexp.MustCompile(`flag\.(?:String|Bool|Int|Int64|Uint|Float64|Duration)\("([^"]+)"`)

// cmdInvoke matches a documented invocation of one of our binaries and
// captures which one. "coalesced" must precede "coalesce" in each
// alternation or the regex stops at the shorter prefix and the \b fails.
var cmdInvoke = regexp.MustCompile(`(?:\./|/)cmd/(coalesced|coalesce|experiments|fclint)\b|(?:^|\s)(coalesced|coalesce|experiments|fclint)\s+-`)

// checkDocFlags walks the fenced code blocks of one markdown file and
// verifies the -flag tokens on lines that invoke a known binary.
func checkDocFlags(name, text string, flags map[string]map[string]bool) []Diagnostic {
	var diags []Diagnostic
	inFence := false
	for ln, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if !inFence {
			continue
		}
		m := cmdInvoke.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		cmd := m[1]
		if cmd == "" {
			cmd = m[2]
		}
		declared, known := flags[cmd]
		if !known {
			continue // command not present in this tree
		}
		for _, tok := range strings.Fields(line) {
			if !strings.HasPrefix(tok, "-") || tok == "-" || strings.HasPrefix(tok, "--") {
				continue
			}
			f := strings.TrimPrefix(tok, "-")
			if i := strings.IndexByte(f, '='); i >= 0 {
				f = f[:i]
			}
			if f == "" || !isFlagName(f) {
				continue // a negative number or prose dash, not a flag
			}
			if !declared[f] {
				diags = append(diags, Diagnostic{
					Pos:      token.Position{Filename: name, Line: ln + 1, Column: 1},
					Analyzer: "docflags",
					Message:  fmt.Sprintf("%s has no flag -%s", cmd, f),
				})
			}
		}
	}
	return diags
}

// isFlagName filters tokens that merely start with '-': flag names are
// lowercase letters (our binaries use no digits or punctuation).
func isFlagName(s string) bool {
	for _, r := range s {
		if r < 'a' || r > 'z' {
			return false
		}
	}
	return true
}
