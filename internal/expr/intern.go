package expr

import "strconv"

// Interner hash-conses expression trees: Intern maps every structurally
// identical subterm to one canonical node pointer, so downstream caches
// keyed by pointer identity (notably the bit-blaster's CNF cache) hit for
// terms that were built independently — e.g. the same observation address
// renamed once for the pair relation and again for each coverage-class
// constraint of an incremental solver.
//
// An Interner is not safe for concurrent use; each solver owns its own.
type Interner struct {
	memo  map[Expr]Expr   // any visited node -> canonical node
	table map[string]Expr // structural key -> canonical node
	ids   map[Expr]uint64 // canonical node -> dense id used in parent terms' keys
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{
		memo:  make(map[Expr]Expr),
		table: make(map[string]Expr),
		ids:   make(map[Expr]uint64),
	}
}

// Intern returns the canonical representative of e, interning every subterm.
// The result is structurally identical to e; two calls with structurally
// equal trees return the same pointer.
func (in *Interner) Intern(e Expr) Expr {
	if c, ok := in.memo[e]; ok {
		return c
	}
	c := in.intern(e)
	in.memo[e] = c
	if c != e {
		in.memo[c] = c
	}
	return c
}

// id returns the dense id of an already-canonical node.
func (in *Interner) id(c Expr) uint64 { return in.ids[c] }

// canon looks the key up, registering the built node as the canonical
// representative when the key is new.
func (in *Interner) canon(key []byte, build func() Expr) Expr {
	if c, ok := in.table[string(key)]; ok {
		return c
	}
	c := build()
	in.table[string(key)] = c
	in.ids[c] = uint64(len(in.ids)) + 1
	return c
}

func appendID(key []byte, id uint64) []byte {
	key = append(key, ' ')
	return strconv.AppendUint(key, id, 16)
}

func (in *Interner) intern(e Expr) Expr {
	switch v := e.(type) {
	case *BoolConst:
		// True/False are package singletons; keep them canonical as-is.
		if v.B {
			return in.canon([]byte("T"), func() Expr { return True })
		}
		return in.canon([]byte("F"), func() Expr { return False })
	case *Const:
		key := append([]byte("c"), ' ')
		key = strconv.AppendUint(key, uint64(v.W), 10)
		key = appendID(key, v.V)
		return in.canon(key, func() Expr { return v })
	case *Var:
		key := append([]byte("v"), ' ')
		key = strconv.AppendUint(key, uint64(v.W), 10)
		key = append(key, ' ')
		key = append(key, v.Name...)
		return in.canon(key, func() Expr { return v })
	case *BoolVar:
		key := append([]byte("V "), v.Name...)
		return in.canon(key, func() Expr { return v })
	case *MemVar:
		key := append([]byte("m "), v.Name...)
		return in.canon(key, func() Expr { return v })
	case *Bin:
		x := in.Intern(v.X).(BVExpr)
		y := in.Intern(v.Y).(BVExpr)
		key := append([]byte("b"), byte(v.Op))
		key = appendID(key, in.id(x))
		key = appendID(key, in.id(y))
		return in.canon(key, func() Expr {
			if x == v.X && y == v.Y {
				return v
			}
			return &Bin{Op: v.Op, X: x, Y: y}
		})
	case *Un:
		x := in.Intern(v.X).(BVExpr)
		key := append([]byte("u"), byte(v.Op))
		key = appendID(key, in.id(x))
		return in.canon(key, func() Expr {
			if x == v.X {
				return v
			}
			return &Un{Op: v.Op, X: x}
		})
	case *Extract:
		x := in.Intern(v.X).(BVExpr)
		key := append([]byte("x"), ' ')
		key = strconv.AppendUint(key, uint64(v.Hi), 10)
		key = append(key, ':')
		key = strconv.AppendUint(key, uint64(v.Lo), 10)
		key = appendID(key, in.id(x))
		return in.canon(key, func() Expr {
			if x == v.X {
				return v
			}
			return &Extract{Hi: v.Hi, Lo: v.Lo, X: x}
		})
	case *Ext:
		x := in.Intern(v.X).(BVExpr)
		key := append([]byte("e"), byte(v.Kind))
		key = strconv.AppendUint(key, uint64(v.W), 10)
		key = appendID(key, in.id(x))
		return in.canon(key, func() Expr {
			if x == v.X {
				return v
			}
			return &Ext{Kind: v.Kind, W: v.W, X: x}
		})
	case *Ite:
		cond := in.Intern(v.Cond).(BoolExpr)
		thn := in.Intern(v.Then).(BVExpr)
		els := in.Intern(v.Else).(BVExpr)
		key := append([]byte("i"), ' ')
		key = appendID(key, in.id(cond))
		key = appendID(key, in.id(thn))
		key = appendID(key, in.id(els))
		return in.canon(key, func() Expr {
			if cond == v.Cond && thn == v.Then && els == v.Else {
				return v
			}
			return &Ite{Cond: cond, Then: thn, Else: els}
		})
	case *Cmp:
		x := in.Intern(v.X).(BVExpr)
		y := in.Intern(v.Y).(BVExpr)
		key := append([]byte("p"), byte(v.Op))
		key = appendID(key, in.id(x))
		key = appendID(key, in.id(y))
		return in.canon(key, func() Expr {
			if x == v.X && y == v.Y {
				return v
			}
			return &Cmp{Op: v.Op, X: x, Y: y}
		})
	case *Nary:
		args := make([]BoolExpr, len(v.Args))
		same := true
		key := append([]byte("n"), byte(v.Op))
		for i, a := range v.Args {
			args[i] = in.Intern(a).(BoolExpr)
			same = same && args[i] == a
			key = appendID(key, in.id(args[i]))
		}
		return in.canon(key, func() Expr {
			if same {
				return v
			}
			return &Nary{Op: v.Op, Args: args}
		})
	case *NotBExpr:
		x := in.Intern(v.X).(BoolExpr)
		key := append([]byte("N"), ' ')
		key = appendID(key, in.id(x))
		return in.canon(key, func() Expr {
			if x == v.X {
				return v
			}
			return &NotBExpr{X: x}
		})
	case *Store:
		m := in.Intern(v.M).(MemExpr)
		addr := in.Intern(v.Addr).(BVExpr)
		val := in.Intern(v.Val).(BVExpr)
		key := append([]byte("s"), ' ')
		key = appendID(key, in.id(m))
		key = appendID(key, in.id(addr))
		key = appendID(key, in.id(val))
		return in.canon(key, func() Expr {
			if m == v.M && addr == v.Addr && val == v.Val {
				return v
			}
			return &Store{M: m, Addr: addr, Val: val}
		})
	case *Read:
		m := in.Intern(v.M).(MemExpr)
		addr := in.Intern(v.Addr).(BVExpr)
		key := append([]byte("r"), ' ')
		key = appendID(key, in.id(m))
		key = appendID(key, in.id(addr))
		return in.canon(key, func() Expr {
			if m == v.M && addr == v.Addr {
				return v
			}
			return &Read{M: m, Addr: addr}
		})
	}
	panic("expr: Intern on unknown node")
}
