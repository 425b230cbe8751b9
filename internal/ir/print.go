package ir

import (
	"fmt"
	"sort"
	"strings"
)

// String renders the program as pseudo-source, with pass annotations shown
// inline ([G] guarded access, [CHUNK s=<stride>] chunked access). Used by
// the trackfm-compile CLI to show what the pipeline decided.
func (p *Program) String() string {
	var b strings.Builder
	names := make([]string, 0, len(p.Funcs))
	for name := range p.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	if p.RuntimeInit {
		fmt.Fprintf(&b, "// runtime-init hooks inserted (object size %d)\n", p.ObjectSize)
	}
	for _, name := range names {
		f := p.Funcs[name]
		fmt.Fprintf(&b, "func %s(%s) {\n", f.Name, strings.Join(f.Params, ", "))
		printStmts(&b, f.Body, 1)
		b.WriteString("}\n")
	}
	return b.String()
}

func printStmts(b *strings.Builder, body []Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, s := range body {
		switch n := s.(type) {
		case *Assign:
			fmt.Fprintf(b, "%s%s = %s\n", ind, n.Name, exprString(n.E))
		case *Store:
			tag := ""
			if n.Chunk != nil {
				tag = fmt.Sprintf(" [CHUNK s=%d]", n.Chunk.Stride)
			} else if n.Guarded {
				tag = " [G]"
			}
			fmt.Fprintf(b, "%s*(%s) = %s%s\n", ind, exprString(n.Addr), exprString(n.Val), tag)
		case *If:
			fmt.Fprintf(b, "%sif %s {\n", ind, exprString(n.Cond))
			printStmts(b, n.Then, depth+1)
			if len(n.Else) > 0 {
				fmt.Fprintf(b, "%s} else {\n", ind)
				printStmts(b, n.Else, depth+1)
			}
			fmt.Fprintf(b, "%s}\n", ind)
		case *For:
			tag := ""
			if n.Chunked {
				tag = " // chunked"
			}
			fmt.Fprintf(b, "%sfor %s = %s; %s < %s; %s += %d {%s\n",
				ind, n.IV, exprString(n.Start), n.IV, exprString(n.Limit), n.IV, n.Step, tag)
			printStmts(b, n.Body, depth+1)
			fmt.Fprintf(b, "%s}\n", ind)
		case *Malloc:
			fn := "malloc"
			if n.TrackFM {
				fn = "tfm_malloc"
			}
			fmt.Fprintf(b, "%s%s = %s(%s)\n", ind, n.Dst, fn, exprString(n.Size))
		case *Free:
			fmt.Fprintf(b, "%sfree(%s)\n", ind, exprString(n.Ptr))
		case *LocalAlloc:
			fmt.Fprintf(b, "%s%s = alloca(%s)\n", ind, n.Dst, exprString(n.Size))
		case *Call:
			dst := ""
			if n.Dst != "" {
				dst = n.Dst + " = "
			}
			args := make([]string, len(n.Args))
			for i, a := range n.Args {
				args[i] = exprString(a)
			}
			fmt.Fprintf(b, "%s%s%s(%s)\n", ind, dst, n.Name, strings.Join(args, ", "))
		case *Return:
			if n.E != nil {
				fmt.Fprintf(b, "%sreturn %s\n", ind, exprString(n.E))
			} else {
				fmt.Fprintf(b, "%sreturn\n", ind)
			}
		}
	}
}

func exprString(e Expr) string {
	switch n := e.(type) {
	case *Const:
		return fmt.Sprintf("%d", n.V)
	case *Var:
		return n.Name
	case *Bin:
		return fmt.Sprintf("(%s %s %s)", exprString(n.L), n.Op, exprString(n.R))
	case *Load:
		tag := ""
		if n.Chunk != nil {
			tag = fmt.Sprintf("[CHUNK s=%d]", n.Chunk.Stride)
		} else if n.Guarded {
			tag = "[G]"
		}
		return fmt.Sprintf("*%s(%s)", tag, exprString(n.Addr))
	case nil:
		return "<nil>"
	default:
		return "<?>"
	}
}
