package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The //datawa: directive vocabulary. A directive is a machine-readable
// comment the analyzers consume:
//
//	//datawa:unordered <justification>     map range is deliberately order-exposed (determinism)
//	//datawa:wallclock <justification>     ambient read (clock/rand/env) is deliberate (determinism)
//	//datawa:locked(mu)                    function/closure runs with mu held by its caller (guarded)
//	//datawa:serialized                    type is single-owner: fields touched only by its methods (guarded)
//	//datawa:hotpath                       function must not allocate on its hot statements (hotpath)
//	//datawa:alloc <justification>         statement in a hotpath allocates deliberately (hotpath)
//
// plus the field annotation the guarded analyzer reads from ordinary prose
// comments: `// guarded by mu`.
//
// Statement-level directives (unordered, wallclock, alloc, and locked on
// closures) attach by position: trailing on the same line as
// the construct, or alone on the line directly above. Declaration-level
// directives (hotpath, locked, serialized) live anywhere in the decl's doc
// comment. Directives that carry a justification require one — a bare escape
// hatch is itself a diagnostic in the analyzer that consumes it.
const directivePrefix = "//datawa:"

// A Directive is one parsed //datawa: comment.
type Directive struct {
	Name string // e.g. "unordered", "locked"
	Args string // text inside parens, e.g. "mu" for locked(mu); "" if none
	// Justification is the free text after the directive, the human-readable
	// why. Required for unordered/wallclock/alloc.
	Justification string
	Pos           token.Pos
}

// Directives indexes one file's //datawa: comments by the lines they govern.
type Directives struct {
	// byLine maps a source line to the directives that apply to constructs
	// on that line: comments on the line itself plus own-line comments on
	// the line above.
	byLine map[int][]Directive
}

// parseDirective parses a single comment, or reports !ok.
func parseDirective(c *ast.Comment) (d Directive, ok bool) {
	text := c.Text
	if !strings.HasPrefix(text, directivePrefix) {
		return Directive{}, false
	}
	rest := text[len(directivePrefix):]
	name := rest
	for i, r := range rest {
		if r == ' ' || r == '\t' || r == '(' {
			name = rest[:i]
			rest = rest[i:]
			break
		}
		if i == len(rest)-1 {
			rest = ""
		}
	}
	if name == "" {
		return Directive{}, false
	}
	d = Directive{Name: name, Pos: c.Pos()}
	if strings.HasPrefix(rest, "(") {
		end := strings.Index(rest, ")")
		if end < 0 {
			// Unterminated argument list: treat everything after "(" as args
			// so the consuming analyzer can complain about it.
			d.Args = strings.TrimSpace(rest[1:])
			return d, true
		}
		d.Args = strings.TrimSpace(rest[1:end])
		rest = rest[end+1:]
	}
	just := strings.TrimSpace(rest)
	// Allow a leading separator between directive and prose: "— why",
	// "- why", ": why".
	just = strings.TrimSpace(strings.TrimPrefix(just, "—"))
	just = strings.TrimSpace(strings.TrimPrefix(just, "-"))
	just = strings.TrimSpace(strings.TrimPrefix(just, ":"))
	d.Justification = just
	return d, true
}

// fileDirectives builds the line index for one file.
func fileDirectives(fset *token.FileSet, f *ast.File) *Directives {
	ds := &Directives{byLine: make(map[int][]Directive)}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			d, ok := parseDirective(c)
			if !ok {
				continue
			}
			line := fset.Position(c.Pos()).Line
			// A directive governs its own line (trailing-comment form) and
			// the line below (own-line form). Indexing both is harmless: a
			// construct looks up only its own line.
			ds.byLine[line] = append(ds.byLine[line], d)
			ds.byLine[line+1] = append(ds.byLine[line+1], d)
		}
	}
	return ds
}

// FileFor returns the *ast.File containing pos, or nil.
func (p *Pass) FileFor(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// DirectiveAt looks up a directive named name governing the line of pos:
// trailing on that line, or alone on the line above.
func (p *Pass) DirectiveAt(pos token.Pos, name string) (Directive, bool) {
	f := p.FileFor(pos)
	if f == nil {
		return Directive{}, false
	}
	ds, ok := p.directives[f]
	if !ok {
		ds = fileDirectives(p.Fset, f)
		p.directives[f] = ds
	}
	line := p.Fset.Position(pos).Line
	for _, d := range ds.byLine[line] {
		if d.Name == name {
			return d, true
		}
	}
	return Directive{}, false
}

// DocDirectives parses every //datawa: directive in a doc comment group.
func DocDirectives(doc *ast.CommentGroup) []Directive {
	if doc == nil {
		return nil
	}
	var out []Directive
	for _, c := range doc.List {
		if d, ok := parseDirective(c); ok {
			out = append(out, d)
		}
	}
	return out
}

// FuncDirective finds a directive on a function declaration: in its doc
// comment, or (for closures and doc-less functions) positioned at/above the
// declaration line.
func (p *Pass) FuncDirective(doc *ast.CommentGroup, pos token.Pos, name string) (Directive, bool) {
	for _, d := range DocDirectives(doc) {
		if d.Name == name {
			return d, true
		}
	}
	return p.DirectiveAt(pos, name)
}

// GuardedBy extracts the `guarded by <mutex>` annotation from a struct
// field's doc or trailing comment. The mutex is named by the last
// dot-separated identifier, so `guarded by Machine.mu` and `guarded by mu`
// both guard on "mu".
func GuardedBy(field *ast.Field) (mutex string, ok bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
			idx := strings.Index(text, "guarded by ")
			if idx < 0 {
				continue
			}
			rest := strings.TrimSpace(text[idx+len("guarded by "):])
			// The mutex name runs to the first non-identifier/non-dot rune.
			end := len(rest)
			for i, r := range rest {
				if r == '.' || r == '_' || r == '*' ||
					('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z') || ('0' <= r && r <= '9') {
					continue
				}
				end = i
				break
			}
			name := strings.Trim(rest[:end], "*")
			if dot := strings.LastIndex(name, "."); dot >= 0 {
				name = name[dot+1:]
			}
			if name != "" {
				return name, true
			}
		}
	}
	return "", false
}
