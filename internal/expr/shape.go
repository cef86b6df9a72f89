package expr

import (
	"fmt"
	"strconv"
	"strings"
)

// CanonShape computes the canonical shape of a formula list: a key that is
// identical for any two lists that are equal up to a consistent renaming of
// their variables (alpha-equivalent), together with the formulas rewritten
// into the canonical name space and the name substitution that was applied.
//
// Canonical names are "@0", "@1", ... assigned by first occurrence during a
// left-to-right traversal, with one counter shared across bitvector, boolean
// and memory variables (node tags keep the sorts apart in the key). The
// returned names slice maps placeholder index i back to the original name
// behind "@i".
//
// The key is built from a dense serialization of the expression DAG — every
// distinct subterm gets one definition line, identified structurally, so the
// key does not depend on how much pointer sharing the input trees happen to
// have. The campaign shape cache (internal/smt.ShapeCache) uses the key to
// recognize that two programs of one template induce identical path-pair
// relations modulo register naming, and the renamed formulas to build one
// shared prototype encoding.
//
// The renamed trees are maximally shared: structurally equal subterms are
// one node. This is safe for every consumer downstream of the bit-blaster's
// interner, which would merge them anyway.
func CanonShape(formulas []BoolExpr) (key string, renamed []BoolExpr, names []string) {
	c := &canonizer{
		table:  make(map[string]int),
		memo:   make(map[Expr]int),
		nameOf: make(map[string]string),
	}
	roots := make([]int, len(formulas))
	renamed = make([]BoolExpr, len(formulas))
	for i, f := range formulas {
		id := c.canon(f)
		roots[i] = id
		renamed[i] = c.nodes[id].(BoolExpr)
	}
	var sb strings.Builder
	for _, d := range c.defs {
		sb.WriteString(d)
		sb.WriteByte('\n')
	}
	sb.WriteByte('!')
	for _, r := range roots {
		sb.WriteByte(' ')
		sb.WriteString(strconv.Itoa(r))
	}
	return sb.String(), renamed, c.names
}

type canonizer struct {
	table  map[string]int    // structural def -> dense id
	defs   []string          // id -> def line, in assignment order
	nodes  []Expr            // id -> canonical renamed node
	memo   map[Expr]int      // visited input node -> id (pointer memo)
	nameOf map[string]string // original name -> placeholder
	names  []string          // placeholder index -> original name
}

// ph returns the placeholder for an original variable name, assigning the
// next index on first sight.
func (c *canonizer) ph(name string) string {
	if p, ok := c.nameOf[name]; ok {
		return p
	}
	p := "@" + strconv.Itoa(len(c.names))
	c.nameOf[name] = p
	c.names = append(c.names, name)
	return p
}

// intern registers the def line, building the canonical node on first sight.
func (c *canonizer) intern(def string, build func() Expr) int {
	if id, ok := c.table[def]; ok {
		return id
	}
	id := len(c.defs)
	c.table[def] = id
	c.defs = append(c.defs, def)
	c.nodes = append(c.nodes, build())
	return id
}

func (c *canonizer) canon(e Expr) int {
	if id, ok := c.memo[e]; ok {
		return id
	}
	id := c.canonNew(e)
	c.memo[e] = id
	return id
}

func (c *canonizer) node(id int) Expr      { return c.nodes[id] }
func (c *canonizer) bv(id int) BVExpr      { return c.nodes[id].(BVExpr) }
func (c *canonizer) boolx(id int) BoolExpr { return c.nodes[id].(BoolExpr) }
func (c *canonizer) mem(id int) MemExpr    { return c.nodes[id].(MemExpr) }

func def1(tag string, args ...int) string {
	var sb strings.Builder
	sb.WriteString(tag)
	for _, a := range args {
		sb.WriteByte(' ')
		sb.WriteString(strconv.Itoa(a))
	}
	return sb.String()
}

func (c *canonizer) canonNew(e Expr) int {
	switch v := e.(type) {
	case *BoolConst:
		if v.B {
			return c.intern("T", func() Expr { return True })
		}
		return c.intern("F", func() Expr { return False })
	case *Const:
		def := "c " + strconv.FormatUint(uint64(v.W), 10) + " " + strconv.FormatUint(v.V, 16)
		return c.intern(def, func() Expr { return v })
	case *Var:
		p := c.ph(v.Name)
		def := "v " + strconv.FormatUint(uint64(v.W), 10) + " " + p
		return c.intern(def, func() Expr { return NewVar(p, v.W) })
	case *BoolVar:
		p := c.ph(v.Name)
		return c.intern("V "+p, func() Expr { return NewBoolVar(p) })
	case *MemVar:
		p := c.ph(v.Name)
		return c.intern("m "+p, func() Expr { return NewMemVar(p) })
	case *Bin:
		x, y := c.canon(v.X), c.canon(v.Y)
		return c.intern(def1("b"+strconv.Itoa(int(v.Op)), x, y), func() Expr {
			return newBin(v.Op, c.bv(x), c.bv(y))
		})
	case *Un:
		x := c.canon(v.X)
		return c.intern(def1("u"+strconv.Itoa(int(v.Op)), x), func() Expr {
			if v.Op == OpNot {
				return Not(c.bv(x))
			}
			return Neg(c.bv(x))
		})
	case *Extract:
		x := c.canon(v.X)
		def := "x " + strconv.FormatUint(uint64(v.Hi), 10) + ":" + strconv.FormatUint(uint64(v.Lo), 10)
		return c.intern(def1(def, x), func() Expr {
			return NewExtract(v.Hi, v.Lo, c.bv(x))
		})
	case *Ext:
		x := c.canon(v.X)
		def := "e" + strconv.Itoa(int(v.Kind)) + " " + strconv.FormatUint(uint64(v.W), 10)
		return c.intern(def1(def, x), func() Expr {
			return NewExt(v.Kind, c.bv(x), v.W)
		})
	case *Ite:
		cond, thn, els := c.canon(v.Cond), c.canon(v.Then), c.canon(v.Else)
		return c.intern(def1("i", cond, thn, els), func() Expr {
			return NewIte(c.boolx(cond), c.bv(thn), c.bv(els))
		})
	case *Cmp:
		x, y := c.canon(v.X), c.canon(v.Y)
		return c.intern(def1("p"+strconv.Itoa(int(v.Op)), x, y), func() Expr {
			return newCmp(v.Op, c.bv(x), c.bv(y))
		})
	case *Nary:
		ids := make([]int, len(v.Args))
		for i, a := range v.Args {
			ids[i] = c.canon(a)
		}
		return c.intern(def1("n"+strconv.Itoa(int(v.Op)), ids...), func() Expr {
			args := make([]BoolExpr, len(ids))
			for i, id := range ids {
				args[i] = c.boolx(id)
			}
			return newNary(v.Op, args)
		})
	case *NotBExpr:
		x := c.canon(v.X)
		return c.intern(def1("N", x), func() Expr { return NotB(c.boolx(x)) })
	case *Store:
		m, addr, val := c.canon(v.M), c.canon(v.Addr), c.canon(v.Val)
		return c.intern(def1("s", m, addr, val), func() Expr {
			return NewStore(c.mem(m), c.bv(addr), c.bv(val))
		})
	case *Read:
		m, addr := c.canon(v.M), c.canon(v.Addr)
		return c.intern(def1("r", m, addr), func() Expr {
			return NewRead(c.mem(m), c.bv(addr))
		})
	}
	panic(fmt.Sprintf("expr: CanonShape on %T", e))
}
