package einsum

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse builds an Einsum from the textual notation used throughout the
// paper (and by this repo's CLIs):
//
//	B[m,n] = A[m,k] * W[k,n] {M=4096, K=4096, N=4096}
//
// Dimensions support strided/dilated affine sums and grouped division:
//
//	B[p,q,n] = A[2p+2r, 2q+2s, c] * W[c,n,r,s] {P=16,Q=16,N=64,C=64,R=3,S=3}
//	B[h,m,n] = A[h,m,k] * W[h/4,k,n] {H=32,M=4096,K=128,N=4096}
//
// Names are ASCII letters and underscores. Rank names are case-insensitive
// (canonicalized to upper case); every referenced rank must be given a
// shape in the trailing {...} block. The left-hand tensor is the output.
// Element size defaults to DefaultElementSize.
func Parse(s string) (*Einsum, error) {
	p := &parser{src: s}
	e, err := p.parse()
	if err != nil {
		return nil, fmt.Errorf("einsum: parse %q: %w", s, err)
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// MustParse is Parse that panics on error, for static workload tables.
func MustParse(s string) *Einsum {
	e, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return e
}

type parser struct {
	src   string
	pos   int
	ranks map[string]string // rank name as written -> upper-cased
}

func (p *parser) parse() (*Einsum, error) {
	out, err := p.tensor()
	if err != nil {
		return nil, err
	}
	out.Output = true
	if !p.eat("=") {
		return nil, p.errf("expected '='")
	}
	tensors := []Tensor{}
	for {
		in, err := p.tensor()
		if err != nil {
			return nil, err
		}
		tensors = append(tensors, in)
		if p.eat("*") || p.eat("x") {
			continue
		}
		break
	}
	shapes, err := p.shapes()
	if err != nil {
		return nil, err
	}
	p.ws()
	if p.pos != len(p.src) {
		return nil, p.errf("trailing input")
	}

	// Collect referenced ranks in first-use order.
	var rankOrder []string
	seen := map[string]bool{}
	collect := func(t *Tensor) {
		for _, d := range t.Dims {
			for _, term := range d.Terms {
				if !seen[term.Rank] {
					seen[term.Rank] = true
					rankOrder = append(rankOrder, term.Rank)
				}
			}
		}
	}
	collect(&out)
	for i := range tensors {
		collect(&tensors[i])
	}

	e := &Einsum{
		Name:        strings.ToLower(out.Name),
		ElementSize: DefaultElementSize,
	}
	for _, r := range rankOrder {
		shape, ok := shapes[r]
		if !ok {
			return nil, fmt.Errorf("rank %s has no shape (add it to the {...} block)", r)
		}
		e.Ranks = append(e.Ranks, Rank{Name: r, Shape: shape})
	}
	for r := range shapes {
		if !seen[r] {
			return nil, fmt.Errorf("shape given for unused rank %s", r)
		}
	}
	e.Tensors = append(tensors, out)
	return e, nil
}

// tensor parses NAME '[' dim (',' dim)* ']'.
func (p *parser) tensor() (Tensor, error) {
	p.ws()
	name := p.ident()
	if name == "" {
		return Tensor{}, p.errf("expected tensor name")
	}
	if !p.eat("[") {
		return Tensor{}, p.errf("expected '[' after tensor %s", name)
	}
	t := Tensor{Name: name}
	for {
		d, err := p.dim()
		if err != nil {
			return Tensor{}, err
		}
		t.Dims = append(t.Dims, d)
		if p.eat(",") {
			continue
		}
		if p.eat("]") {
			break
		}
		return Tensor{}, p.errf("expected ',' or ']' in tensor %s", name)
	}
	return t, nil
}

// dim parses either a grouped index "h/4" or an affine sum "2p+2r".
func (p *parser) dim() (Dim, error) {
	first, err := p.term()
	if err != nil {
		return Dim{}, err
	}
	if p.eat("/") {
		if first.Coeff != 1 {
			return Dim{}, p.errf("grouped dims cannot carry a coefficient")
		}
		div := p.number()
		if div < 2 {
			return Dim{}, p.errf("group divisor must be >= 2")
		}
		return Dim{Terms: []Term{first}, GroupDiv: div}, nil
	}
	d := Dim{Terms: []Term{first}}
	for p.eat("+") {
		t, err := p.term()
		if err != nil {
			return Dim{}, err
		}
		d.Terms = append(d.Terms, t)
	}
	return d, nil
}

// term parses an optional coefficient followed by a rank name.
func (p *parser) term() (Term, error) {
	p.ws()
	coeff := int64(1)
	if n := p.number(); n > 0 {
		coeff = n
	}
	name := p.ident()
	if name == "" {
		return Term{}, p.errf("expected rank name")
	}
	return Term{Rank: p.rank(name), Coeff: coeff}, nil
}

// rank canonicalizes a rank name to upper case, upper-casing each
// spelling once per parse.
func (p *parser) rank(name string) string {
	if r, ok := p.ranks[name]; ok {
		return r
	}
	if p.ranks == nil {
		p.ranks = make(map[string]string)
	}
	r := strings.ToUpper(name)
	p.ranks[name] = r
	return r
}

// shapes parses '{' NAME '=' INT (',' ...)* '}'.
func (p *parser) shapes() (map[string]int64, error) {
	p.ws()
	if !p.eat("{") {
		return nil, p.errf("expected '{' rank-shape block")
	}
	out := map[string]int64{}
	for {
		p.ws()
		name := p.ident()
		if name == "" {
			return nil, p.errf("expected rank name in shape block")
		}
		if !p.eat("=") {
			return nil, p.errf("expected '=' after rank %s", name)
		}
		v := p.number()
		if v < 1 {
			return nil, p.errf("bad shape for rank %s", name)
		}
		key := p.rank(name)
		if _, dup := out[key]; dup {
			return nil, p.errf("duplicate shape for rank %s", key)
		}
		out[key] = v
		p.eat(",") // separators are a comma or just whitespace
		if p.eat("}") {
			return out, nil
		}
	}
}

// lexer helpers --------------------------------------------------------

func (p *parser) ws() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n') {
		p.pos++
	}
}

func (p *parser) eat(tok string) bool {
	p.ws()
	if strings.HasPrefix(p.src[p.pos:], tok) {
		// "x" doubles as a multiply sign only when it stands alone.
		if tok == "x" && p.pos+1 < len(p.src) && isIdent(p.src[p.pos+1]) {
			return false
		}
		p.pos += len(tok)
		return true
	}
	return false
}

func (p *parser) ident() string {
	p.ws()
	start := p.pos
	for p.pos < len(p.src) && isIdent(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos]
}

func (p *parser) number() int64 {
	p.ws()
	start := p.pos
	for p.pos < len(p.src) && '0' <= p.src[p.pos] && p.src[p.pos] <= '9' {
		p.pos++
	}
	if start == p.pos {
		return 0
	}
	v, err := strconv.ParseInt(p.src[start:p.pos], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// isIdent reports whether byte c may appear in a tensor or rank name:
// ASCII letters and '_' only, so that upper- and lower-casing a name (as
// rank canonicalization and String do) round-trips.
func isIdent(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("at byte %d: %s", p.pos, fmt.Sprintf(format, args...))
}
