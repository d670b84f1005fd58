package dbms

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"

	"github.com/bdbench/bdbench/internal/data"
)

// ParseSQL parses a SQL subset into a Query:
//
//	SELECT (*| expr [, expr]*) FROM table
//	  [JOIN table ON col = col]
//	  [WHERE col op literal [AND ...]]
//	  [GROUP BY col [, col]*]
//	  [ORDER BY col [ASC|DESC] [, ...]]
//	  [LIMIT n]
//
// where expr is a column name or an aggregate fn(col|*) [AS name], op is one
// of = != < <= > >=, and literals are numbers, 'strings', true/false or
// NULL. Keywords are case-insensitive; identifiers are case-sensitive.
func ParseSQL(sql string) (Query, error) {
	p := &sqlParser{tokens: lexSQL(sql)}
	q, err := p.parse()
	if err != nil {
		return Query{}, fmt.Errorf("dbms: parse %q: %w", sql, err)
	}
	return q, nil
}

// Query executes a SQL string directly.
func (db *DB) Query(sql string) (*data.Table, error) {
	q, err := ParseSQL(sql)
	if err != nil {
		return nil, err
	}
	return db.Execute(q)
}

type token struct {
	kind string // ident, number, string, punct, end
	text string
}

func lexSQL(s string) []token {
	var out []token
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			j := i + 1
			var sb strings.Builder
			for j < len(s) {
				if s[j] == '\'' {
					if j+1 < len(s) && s[j+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				sb.WriteByte(s[j])
				j++
			}
			out = append(out, token{"string", sb.String()})
			i = j + 1
		case c >= '0' && c <= '9' || c == '-' && i+1 < len(s) && s[i+1] >= '0' && s[i+1] <= '9':
			j := i + 1
			for j < len(s) && (s[j] >= '0' && s[j] <= '9' || s[j] == '.' || s[j] == 'e' || s[j] == 'E' || s[j] == '+' || s[j] == '-') {
				// Stop '-'/'+' unless right after exponent.
				if (s[j] == '+' || s[j] == '-') && !(s[j-1] == 'e' || s[j-1] == 'E') {
					break
				}
				j++
			}
			out = append(out, token{"number", s[i:j]})
			i = j
		case isIdentChar(c):
			j := i + 1
			for j < len(s) && isIdentChar(s[j]) {
				j++
			}
			out = append(out, token{"ident", s[i:j]})
			i = j
		case c == '<' || c == '>' || c == '!':
			if i+1 < len(s) && s[i+1] == '=' {
				out = append(out, token{"punct", s[i : i+2]})
				i += 2
			} else {
				out = append(out, token{"punct", string(c)})
				i++
			}
		default:
			out = append(out, token{"punct", string(c)})
			i++
		}
	}
	return append(out, token{kind: "end"})
}

func isIdentChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '.'
}

type sqlParser struct {
	tokens []token
	pos    int
}

func (p *sqlParser) peek() token { return p.tokens[p.pos] }

func (p *sqlParser) next() token {
	t := p.tokens[p.pos]
	if t.kind != "end" {
		p.pos++
	}
	return t
}

func (p *sqlParser) keyword(words ...string) bool {
	t := p.peek()
	if t.kind != "ident" {
		return false
	}
	for _, w := range words {
		if strings.EqualFold(t.text, w) {
			return true
		}
	}
	return false
}

func (p *sqlParser) expectKeyword(w string) error {
	if !p.keyword(w) {
		return fmt.Errorf("expected %s, got %q", strings.ToUpper(w), p.peek().text)
	}
	p.next()
	return nil
}

func (p *sqlParser) expectPunct(s string) error {
	t := p.peek()
	if t.kind != "punct" || t.text != s {
		return fmt.Errorf("expected %q, got %q", s, t.text)
	}
	p.next()
	return nil
}

func (p *sqlParser) ident() (string, error) {
	t := p.peek()
	if t.kind != "ident" {
		return "", fmt.Errorf("expected identifier, got %q", t.text)
	}
	p.next()
	return t.text, nil
}

var aggFns = map[string]bool{"count": true, "sum": true, "avg": true, "min": true, "max": true}

func (p *sqlParser) parse() (Query, error) {
	var q Query
	if err := p.expectKeyword("select"); err != nil {
		return q, err
	}
	if p.peek().kind == "punct" && p.peek().text == "*" {
		p.next()
	} else {
		for {
			t := p.peek()
			if t.kind != "ident" {
				return q, fmt.Errorf("expected select expression, got %q", t.text)
			}
			lower := strings.ToLower(t.text)
			if aggFns[lower] && p.tokens[p.pos+1].kind == "punct" && p.tokens[p.pos+1].text == "(" {
				p.next() // fn
				p.next() // (
				agg := Agg{Fn: lower}
				if p.peek().kind == "punct" && p.peek().text == "*" {
					p.next()
					agg.Col = "*"
				} else {
					col, err := p.ident()
					if err != nil {
						return q, err
					}
					agg.Col = col
				}
				if err := p.expectPunct(")"); err != nil {
					return q, err
				}
				if p.keyword("as") {
					p.next()
					as, err := p.ident()
					if err != nil {
						return q, err
					}
					agg.As = as
				}
				q.Aggs = append(q.Aggs, agg)
			} else {
				col, err := p.ident()
				if err != nil {
					return q, err
				}
				q.Select = append(q.Select, col)
			}
			if p.peek().kind == "punct" && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return q, err
	}
	from, err := p.ident()
	if err != nil {
		return q, err
	}
	q.From = from

	if p.keyword("join") {
		p.next()
		tbl, err := p.ident()
		if err != nil {
			return q, err
		}
		if err := p.expectKeyword("on"); err != nil {
			return q, err
		}
		left, err := p.ident()
		if err != nil {
			return q, err
		}
		if err := p.expectPunct("="); err != nil {
			return q, err
		}
		right, err := p.ident()
		if err != nil {
			return q, err
		}
		q.Join = &JoinSpec{Table: tbl, LeftCol: left, RightCol: right}
	}

	if p.keyword("where") {
		p.next()
		for {
			pred, err := p.predicate()
			if err != nil {
				return q, err
			}
			q.Where = append(q.Where, pred)
			if p.keyword("and") {
				p.next()
				continue
			}
			break
		}
	}

	if p.keyword("group") {
		p.next()
		if err := p.expectKeyword("by"); err != nil {
			return q, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return q, err
			}
			q.GroupBy = append(q.GroupBy, col)
			if p.peek().kind == "punct" && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
	}

	if p.keyword("order") {
		p.next()
		if err := p.expectKeyword("by"); err != nil {
			return q, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return q, err
			}
			ord := Order{Col: col}
			if p.keyword("desc") {
				p.next()
				ord.Desc = true
			} else if p.keyword("asc") {
				p.next()
			}
			q.OrderBy = append(q.OrderBy, ord)
			if p.peek().kind == "punct" && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
	}

	if p.keyword("limit") {
		p.next()
		t := p.next()
		if t.kind != "number" {
			return q, fmt.Errorf("expected LIMIT count, got %q", t.text)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return q, fmt.Errorf("bad LIMIT %q", t.text)
		}
		q.Limit = cmp.Or(n, NoRows) // LIMIT 0 is no rows, not no limit
	}

	if t := p.peek(); t.kind != "end" {
		return q, fmt.Errorf("unexpected trailing token %q", t.text)
	}
	if q.From == "" {
		return q, fmt.Errorf("missing FROM table")
	}
	return q, nil
}

func (p *sqlParser) predicate() (Pred, error) {
	col, err := p.ident()
	if err != nil {
		return Pred{}, err
	}
	t := p.next()
	if t.kind != "punct" {
		return Pred{}, fmt.Errorf("expected comparison operator, got %q", t.text)
	}
	var op CmpOp
	switch t.text {
	case "=", "<", "<=", ">", ">=", "!=":
		op = CmpOp(t.text)
	default:
		return Pred{}, fmt.Errorf("unknown operator %q", t.text)
	}
	val, err := p.literal()
	if err != nil {
		return Pred{}, err
	}
	return Pred{Col: col, Op: op, Val: val}, nil
}

func (p *sqlParser) literal() (data.Value, error) {
	t := p.next()
	switch t.kind {
	case "number":
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return data.Null(), fmt.Errorf("bad number %q", t.text)
			}
			return data.Float(f), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return data.Null(), fmt.Errorf("bad number %q", t.text)
		}
		return data.Int(n), nil
	case "string":
		return data.String_(t.text), nil
	case "ident":
		switch strings.ToLower(t.text) {
		case "true":
			return data.Bool(true), nil
		case "false":
			return data.Bool(false), nil
		case "null":
			return data.Null(), nil
		}
		return data.Null(), fmt.Errorf("expected literal, got identifier %q", t.text)
	default:
		return data.Null(), fmt.Errorf("expected literal, got %q", t.text)
	}
}
