package source

import (
	"fmt"

	"repro/internal/ir"
)

type parser struct {
	toks    []Token
	pos     int
	structs map[string]*ir.Type
}

// Parse lexes and parses MiniC source into a File.
func Parse(src string) (*File, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, structs: map[string]*ir.Type{}}
	return p.file()
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

// peek returns the token k positions ahead of the current one, or the
// final EOF token when the input ends sooner.
func (p *parser) peek(k int) Token {
	if i := p.pos + k; i < len(p.toks) {
		return p.toks[i]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return &Error{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) isPunct(s string) bool {
	t := p.cur()
	return t.Kind == TokPunct && t.Text == s
}

func (p *parser) isKeyword(s string) bool {
	t := p.cur()
	return t.Kind == TokKeyword && t.Text == s
}

func (p *parser) acceptPunct(s string) bool {
	if p.isPunct(s) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errf("expected %q, found %s", s, p.cur())
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if p.cur().Kind != TokIdent {
		return "", p.errf("expected identifier, found %s", p.cur())
	}
	return p.next().Text, nil
}

// typeStart reports whether the current token begins a type.
func (p *parser) typeStart() bool {
	return p.isKeyword("int") || p.isKeyword("double") || p.isKeyword("void") || p.isKeyword("struct")
}

// parseType parses a base type plus pointer stars: "int", "double",
// "struct S**", etc.
func (p *parser) parseType() (*ir.Type, error) {
	var t *ir.Type
	switch {
	case p.isKeyword("int"):
		p.pos++
		t = ir.IntType
	case p.isKeyword("double"):
		p.pos++
		t = ir.FloatType
	case p.isKeyword("void"):
		p.pos++
		t = ir.VoidType
	case p.isKeyword("struct"):
		p.pos++
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st, ok := p.structs[name]
		if !ok {
			return nil, p.errf("unknown struct %q", name)
		}
		t = st
	default:
		return nil, p.errf("expected type, found %s", p.cur())
	}
	for p.acceptPunct("*") {
		t = ir.PtrTo(t)
	}
	return t, nil
}

func (p *parser) file() (*File, error) {
	f := &File{}
	for p.cur().Kind != TokEOF {
		if p.isKeyword("struct") && p.peek(2).Kind == TokPunct && p.peek(2).Text == "{" {
			sd, err := p.structDecl()
			if err != nil {
				return nil, err
			}
			f.Structs = append(f.Structs, sd)
			continue
		}
		if !p.typeStart() {
			return nil, p.errf("expected declaration, found %s", p.cur())
		}
		line := p.cur().Line
		t, err := p.parseType()
		if err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if p.isPunct("(") {
			fd, err := p.funcDecl(t, name, line)
			if err != nil {
				return nil, err
			}
			f.Funcs = append(f.Funcs, fd)
			continue
		}
		vd, err := p.finishVarDecl(t, name, line)
		if err != nil {
			return nil, err
		}
		f.Globals = append(f.Globals, vd)
	}
	return f, nil
}

func (p *parser) structDecl() (*StructDecl, error) {
	line := p.cur().Line
	p.pos++ // struct
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	st := &ir.Type{Kind: ir.KStruct, Name: name}
	p.structs[name] = st // allow recursive pointer fields
	off := 0
	for !p.isPunct("}") {
		ft, err := p.parseType()
		if err != nil {
			return nil, err
		}
		fname, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if p.acceptPunct("[") {
			if p.cur().Kind != TokInt {
				return nil, p.errf("array length must be an integer literal")
			}
			n := int(p.next().Val)
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			ft = ir.ArrayOf(ft, n)
		}
		if ft.Kind == ir.KStruct && ft.Name == name {
			return nil, p.errf("struct %s contains itself", name)
		}
		st.Fields = append(st.Fields, ir.Field{Name: fname, Type: ft, Off: off})
		off += ft.Size()
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
	}
	p.pos++ // }
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return &StructDecl{Name: name, Type: st, Line: line}, nil
}

// finishVarDecl parses the remainder of a variable declaration after the
// base type and name: optional array suffixes and initializer.
func (p *parser) finishVarDecl(t *ir.Type, name string, line int) (*VarDecl, error) {
	var dims []int
	for p.acceptPunct("[") {
		if p.cur().Kind != TokInt {
			return nil, p.errf("array length must be an integer literal")
		}
		dims = append(dims, int(p.next().Val))
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
	}
	for i := len(dims) - 1; i >= 0; i-- {
		t = ir.ArrayOf(t, dims[i])
	}
	var init Expr
	if p.acceptPunct("=") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		init = e
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return &VarDecl{Name: name, Type: t, Init: init, Line: line}, nil
}

func (p *parser) funcDecl(ret *ir.Type, name string, line int) (*FuncDecl, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var params []Param
	if !p.isPunct(")") {
		for {
			pt, err := p.parseType()
			if err != nil {
				return nil, err
			}
			pname, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			params = append(params, Param{Name: pname, Type: pt})
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.blockStmt()
	if err != nil {
		return nil, err
	}
	return &FuncDecl{Name: name, Ret: ret, Params: params, Body: body, Line: line}, nil
}

func (p *parser) blockStmt() (*BlockStmt, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	b := &BlockStmt{}
	for !p.isPunct("}") {
		if p.cur().Kind == TokEOF {
			return nil, p.errf("unexpected end of file in block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.List = append(b.List, s)
	}
	p.pos++ // }
	return b, nil
}

func (p *parser) stmt() (Stmt, error) {
	switch {
	case p.isPunct("{"):
		return p.blockStmt()
	case p.typeStart():
		line := p.cur().Line
		t, err := p.parseType()
		if err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		vd, err := p.finishVarDecl(t, name, line)
		if err != nil {
			return nil, err
		}
		return &DeclStmt{Decl: vd}, nil
	case p.isKeyword("if"):
		p.pos++
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		then, err := p.stmt()
		if err != nil {
			return nil, err
		}
		var els Stmt
		if p.isKeyword("else") {
			p.pos++
			els, err = p.stmt()
			if err != nil {
				return nil, err
			}
		}
		return &IfStmt{Cond: cond, Then: then, Else: els}, nil
	case p.isKeyword("while"):
		p.pos++
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body}, nil
	case p.isKeyword("for"):
		return p.forStmt()
	case p.isKeyword("return"):
		line := p.cur().Line
		p.pos++
		var x Expr
		if !p.isPunct(";") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			x = e
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &ReturnStmt{X: x, Line: line}, nil
	case p.isKeyword("break"):
		line := p.cur().Line
		p.pos++
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &BreakStmt{Line: line}, nil
	case p.isKeyword("continue"):
		line := p.cur().Line
		p.pos++
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &ContinueStmt{Line: line}, nil
	default:
		line := p.cur().Line
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &ExprStmt{X: x, Line: line}, nil
	}
}

func (p *parser) forStmt() (Stmt, error) {
	p.pos++ // for
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var init Stmt
	if !p.isPunct(";") {
		if p.typeStart() {
			line := p.cur().Line
			t, err := p.parseType()
			if err != nil {
				return nil, err
			}
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			var ie Expr
			if p.acceptPunct("=") {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				ie = e
			}
			init = &DeclStmt{Decl: &VarDecl{Name: name, Type: t, Init: ie, Line: line}}
		} else {
			line := p.cur().Line
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			init = &ExprStmt{X: x, Line: line}
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	var cond Expr
	if !p.isPunct(";") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		cond = e
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	var post Stmt
	if !p.isPunct(")") {
		line := p.cur().Line
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		post = &ExprStmt{X: x, Line: line}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.stmt()
	if err != nil {
		return nil, err
	}
	return &ForStmt{Init: init, Cond: cond, Post: post, Body: body}, nil
}

// expr parses assignment expressions (right associative, lowest precedence).
func (p *parser) expr() (Expr, error) {
	lhs, err := p.binary(0)
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == TokPunct {
		switch t.Text {
		case "=", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=":
			line := t.Line
			p.pos++
			rhs, err := p.expr()
			if err != nil {
				return nil, err
			}
			op := ""
			if t.Text != "=" {
				op = t.Text[:1]
			}
			return &AssignExpr{Op: op, LHS: lhs, RHS: rhs, Line: line}, nil
		}
	}
	return lhs, nil
}

// binary operator precedence, loosest to tightest.
var precTable = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *parser) binary(minPrec int) (Expr, error) {
	lhs, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokPunct {
			return lhs, nil
		}
		prec, ok := precTable[t.Text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.pos++
		rhs, err := p.binary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Op: t.Text, L: lhs, R: rhs, Line: t.Line}
	}
}

func (p *parser) unary() (Expr, error) {
	t := p.cur()
	if t.Kind == TokPunct {
		switch t.Text {
		case "-", "!", "*", "&":
			p.pos++
			x, err := p.unary()
			if err != nil {
				return nil, err
			}
			return &Unary{Op: t.Text, X: x, Line: t.Line}, nil
		case "(":
			// possibly a cast
			nt := p.peek(1)
			if nt.Kind == TokKeyword && (nt.Text == "int" || nt.Text == "double" || nt.Text == "struct") {
				p.pos++ // (
				ct, err := p.parseType()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				x, err := p.unary()
				if err != nil {
					return nil, err
				}
				return &Cast{Type: ct, X: x, Line: t.Line}, nil
			}
		}
	}
	return p.postfix()
}

func (p *parser) postfix() (Expr, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokPunct {
			return x, nil
		}
		switch t.Text {
		case "[":
			p.pos++
			i, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			x = &Index{X: x, I: i, Line: t.Line}
		case ".":
			p.pos++
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			x = &FieldSel{X: x, Name: name, Line: t.Line}
		case "->":
			p.pos++
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			x = &FieldSel{X: x, Name: name, Arrow: true, Line: t.Line}
		case "++", "--":
			p.pos++
			x = &IncDec{Op: t.Text, X: x, Line: t.Line}
		default:
			return x, nil
		}
	}
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.pos++
		return &IntLit{Val: t.Val, Line: t.Line}, nil
	case TokFloat:
		p.pos++
		return &FloatLit{Val: t.FVal, Line: t.Line}, nil
	case TokIdent:
		p.pos++
		if p.isPunct("(") {
			p.pos++
			var args []Expr
			if !p.isPunct(")") {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.acceptPunct(",") {
						break
					}
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &CallExpr{Name: t.Text, Args: args, Line: t.Line}, nil
		}
		return &Ident{Name: t.Text, Line: t.Line}, nil
	case TokPunct:
		if t.Text == "(" {
			p.pos++
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return x, nil
		}
	}
	return nil, p.errf("expected expression, found %s", t)
}
