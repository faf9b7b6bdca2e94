package cube

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// ParseSOP parses a sum-of-products expression in paper notation into a
// cover. Products are separated by '+'; literals are x<k> (1-indexed)
// optionally followed by ' for complementation; '*' and whitespace
// between literals are ignored. The strings "0" and "1" denote the empty
// cover and the universe cube. Examples:
//
//	x1x2 + x1'x2'
//	x1 * x2' + x3
//
//xbarvet:ignore testonly: lattice, qm and xbar2t tests spell their covers as SOP text
func ParseSOP(s string) (Cover, int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, 0, fmt.Errorf("cube: empty expression")
	}
	if s == "0" {
		return Cover{}, 0, nil
	}
	if s == "1" {
		return Cover{Universe}, 0, nil
	}
	maxVar := 0
	var cv Cover
	for _, prod := range strings.Split(s, "+") {
		prod = strings.TrimSpace(prod)
		if prod == "" {
			return nil, 0, fmt.Errorf("cube: empty product in %q", s)
		}
		c, hi, err := parseProduct(prod)
		if err != nil {
			return nil, 0, err
		}
		if hi > maxVar {
			maxVar = hi
		}
		cv = append(cv, c)
	}
	return cv, maxVar, nil
}

func parseProduct(s string) (Cube, int, error) {
	var c Cube
	maxVar := 0
	i := 0
	for i < len(s) {
		switch {
		case s[i] == ' ' || s[i] == '\t' || s[i] == '*' || s[i] == '.':
			i++
		case s[i] == 'x' || s[i] == 'X':
			i++
			j := i
			for j < len(s) && s[j] >= '0' && s[j] <= '9' {
				j++
			}
			if j == i {
				return Cube{}, 0, fmt.Errorf("cube: missing variable index at %q", s[i:])
			}
			idx, err := strconv.Atoi(s[i:j])
			if err != nil || idx < 1 || idx > 64 {
				return Cube{}, 0, fmt.Errorf("cube: bad variable index %q", s[i:j])
			}
			i = j
			neg := false
			if i < len(s) && s[i] == '\'' {
				neg = true
				i++
			}
			v := idx - 1 // 1-indexed notation, 0-indexed storage
			if c.HasLiteral(v, !neg) {
				return Cube{}, 0, fmt.Errorf("cube: contradictory literal x%d in %q", idx, s)
			}
			if neg {
				c.Neg |= 1 << uint(v)
			} else {
				c.Pos |= 1 << uint(v)
			}
			if idx > maxVar {
				maxVar = idx
			}
		default:
			return Cube{}, 0, fmt.Errorf("cube: unexpected character %q in product %q", s[i], s)
		}
	}
	if c.IsUniverse() {
		return Cube{}, 0, fmt.Errorf("cube: product %q has no literals", s)
	}
	return c, maxVar, nil
}

// PLA is a parsed multi-output PLA description (espresso-style).
type PLA struct {
	Inputs  int
	Outputs int
	Names   []string // optional output names (.ob), may be nil
	Covers  []Cover  // one ON-set cover per output
}

// ParsePLA parses an espresso-format PLA: ".i", ".o", optional ".p",
// ".ilb"/".ob" (names), cube rows of input part over {0,1,-} and output
// part over {0,1,-,~} (only '1' contributes to the ON-set; type f/fr
// files therefore parse correctly for ON-set purposes), terminated by
// optional ".e".
func ParsePLA(text string) (*PLA, error) {
	p := &PLA{Inputs: -1, Outputs: -1}
	sc := bufio.NewScanner(strings.NewReader(text))
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		if strings.HasPrefix(s, ".") {
			fields := strings.Fields(s)
			switch fields[0] {
			case ".i":
				if len(fields) != 2 {
					return nil, fmt.Errorf("pla line %d: malformed .i", line)
				}
				n, err := strconv.Atoi(fields[1])
				if err != nil || n < 1 || n > 64 {
					return nil, fmt.Errorf("pla line %d: bad input count", line)
				}
				p.Inputs = n
			case ".o":
				if len(fields) != 2 {
					return nil, fmt.Errorf("pla line %d: malformed .o", line)
				}
				m, err := strconv.Atoi(fields[1])
				if err != nil || m < 1 {
					return nil, fmt.Errorf("pla line %d: bad output count", line)
				}
				p.Outputs = m
				p.Covers = make([]Cover, m)
			case ".ob":
				p.Names = fields[1:]
			case ".p", ".ilb", ".type", ".e", ".end":
				// informational / terminator
			default:
				return nil, fmt.Errorf("pla line %d: unknown directive %s", line, fields[0])
			}
			continue
		}
		if p.Inputs < 0 || p.Outputs < 0 {
			return nil, fmt.Errorf("pla line %d: cube before .i/.o", line)
		}
		fields := strings.Fields(s)
		var in, out string
		switch len(fields) {
		case 2:
			in, out = fields[0], fields[1]
		case 1:
			if len(fields[0]) != p.Inputs+p.Outputs {
				return nil, fmt.Errorf("pla line %d: cube width %d != %d", line, len(fields[0]), p.Inputs+p.Outputs)
			}
			in, out = fields[0][:p.Inputs], fields[0][p.Inputs:]
		default:
			return nil, fmt.Errorf("pla line %d: malformed cube row", line)
		}
		if len(in) != p.Inputs || len(out) != p.Outputs {
			return nil, fmt.Errorf("pla line %d: cube part widths (%d,%d) want (%d,%d)", line, len(in), len(out), p.Inputs, p.Outputs)
		}
		var c Cube
		for v := 0; v < p.Inputs; v++ {
			switch in[v] {
			case '1':
				c.Pos |= 1 << uint(v)
			case '0':
				c.Neg |= 1 << uint(v)
			case '-', '2':
				// don't care: variable absent
			default:
				return nil, fmt.Errorf("pla line %d: bad input char %q", line, in[v])
			}
		}
		for o := 0; o < p.Outputs; o++ {
			switch out[o] {
			case '1', '4':
				p.Covers[o] = append(p.Covers[o], c)
			case '0', '-', '~', '2', '3':
				// off-set / don't-care rows ignored for ON-set covers
			default:
				return nil, fmt.Errorf("pla line %d: bad output char %q", line, out[o])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if p.Inputs < 0 || p.Outputs < 0 {
		return nil, fmt.Errorf("pla: missing .i or .o")
	}
	return p, nil
}
