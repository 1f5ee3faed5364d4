package spice

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"vstat/internal/bsim"
	"vstat/internal/device"
	"vstat/internal/vsmodel"
)

// Deck is a parsed netlist: the circuit plus the analysis cards found.
type Deck struct {
	Circuit *Circuit
	Title   string

	// Analyses, in card order.
	OPRequested bool
	DCCards     []DCCard
	TranCards   []TranCard
	ACCards     []ACCard
	ICs         map[string]float64 // node name -> initial voltage
}

// DCCard is a ".dc <vsource> start stop step" sweep request.
type DCCard struct {
	Source            string
	Start, Stop, Step float64
}

// TranCard is a ".tran step stop [uic]" request.
type TranCard struct {
	Step, Stop float64
	UIC        bool
}

// ACCard is a ".ac <vsource> fstart fstop npts" request (log-spaced sweep
// with a unit AC excitation on the named source).
type ACCard struct {
	Source        string
	FStart, FStop float64
	Points        int
}

// ParseNetlist reads a SPICE-subset netlist:
//
//	M<name> d g s b nmos|pmos|nmos_golden|pmos_golden W=<v> L=<v>
//	R<name> a b <ohms>        C<name> a b <farads>
//	V<name> p n DC <v> | PULSE(v0 v1 td tr tf pw per) | PWL(t1 v1 t2 v2 ...)
//	I<name> p n DC <amps>
//	.op    .dc V<name> start stop step    .tran step stop [uic]
//	.ac V<name> fstart fstop npts    .ic v(node)=<v> ...    .end
//
// The first line is the title (as in SPICE). Values accept engineering
// suffixes (f p n u m k meg g t). MOSFET models nmos/pmos are the Virtual
// Source cards; nmos_golden/pmos_golden are the BSIM-like reference cards.
func ParseNetlist(r io.Reader) (*Deck, error) {
	d := &Deck{Circuit: New(), ICs: map[string]float64{}}
	sc := bufio.NewScanner(r)
	lineNo := 0
	first := true
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if first {
			first = false
			// SPICE convention: the first line is always the title.
			d.Title = line
			continue
		}
		if line == "" || strings.HasPrefix(line, "*") {
			continue
		}
		if err := d.parseLine(line); err != nil {
			return nil, fmt.Errorf("netlist line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *Deck) parseLine(line string) error {
	fields := strings.Fields(line)
	card := strings.ToLower(fields[0])
	c := d.Circuit
	switch {
	case card == ".end":
		return nil
	case card == ".op":
		d.OPRequested = true
		return nil
	case card == ".dc":
		if len(fields) != 5 {
			return fmt.Errorf(".dc wants <src> start stop step")
		}
		start, err1 := ParseValue(fields[2])
		stop, err2 := ParseValue(fields[3])
		step, err3 := ParseValue(fields[4])
		if err := firstErr(err1, err2, err3); err != nil {
			return err
		}
		if step <= 0 || stop < start {
			return fmt.Errorf(".dc bad range")
		}
		d.DCCards = append(d.DCCards, DCCard{Source: fields[1], Start: start, Stop: stop, Step: step})
		return nil
	case card == ".tran":
		if len(fields) < 3 {
			return fmt.Errorf(".tran wants step stop [uic]")
		}
		step, err1 := ParseValue(fields[1])
		stop, err2 := ParseValue(fields[2])
		if err := firstErr(err1, err2); err != nil {
			return err
		}
		uic := len(fields) > 3 && strings.EqualFold(fields[3], "uic")
		d.TranCards = append(d.TranCards, TranCard{Step: step, Stop: stop, UIC: uic})
		return nil
	case card == ".ac":
		if len(fields) != 5 {
			return fmt.Errorf(".ac wants <src> fstart fstop npts")
		}
		f0, err1 := ParseValue(fields[2])
		f1, err2 := ParseValue(fields[3])
		np, err3 := ParseValue(fields[4])
		if err := firstErr(err1, err2, err3); err != nil {
			return err
		}
		if f0 <= 0 || f1 < f0 {
			return fmt.Errorf(".ac bad range")
		}
		// The point count must be a whole number that int holds exactly
		// (float64(math.MaxInt) rounds up to 2^63, one past the range).
		if np < 1 || np != math.Trunc(np) || np >= float64(math.MaxInt) {
			return fmt.Errorf(".ac point count %s is not an integer >= 1", fields[4])
		}
		d.ACCards = append(d.ACCards, ACCard{Source: fields[1], FStart: f0, FStop: f1, Points: int(np)})
		return nil
	case card == ".ic":
		for _, tok := range fields[1:] {
			name, val, ok := parseICToken(tok)
			if !ok {
				return fmt.Errorf("bad .ic token %q", tok)
			}
			d.ICs[name] = val
		}
		return nil
	case strings.HasPrefix(card, "."):
		return fmt.Errorf("unsupported card %s", fields[0])
	}

	name := fields[0]
	switch line[0] {
	case 'R', 'r':
		if len(fields) != 4 {
			return fmt.Errorf("resistor wants 2 nodes + value")
		}
		v, err := ParseValue(fields[3])
		if err != nil {
			return err
		}
		// A positive value can still overflow its conductance 1/v.
		if !(v > 0) || math.IsInf(1/v, 0) {
			return fmt.Errorf("resistor %s value %s is out of range (want R > 0 with a finite 1/R)", name, fields[3])
		}
		c.AddR(name, c.Node(fields[1]), c.Node(fields[2]), v)
	case 'C', 'c':
		if len(fields) != 4 {
			return fmt.Errorf("capacitor wants 2 nodes + value")
		}
		v, err := ParseValue(fields[3])
		if err != nil {
			return err
		}
		if v < 0 {
			return fmt.Errorf("capacitor %s value %s is negative", name, fields[3])
		}
		c.AddC(name, c.Node(fields[1]), c.Node(fields[2]), v)
	case 'V', 'v', 'I', 'i':
		if len(fields) < 4 {
			return fmt.Errorf("source wants 2 nodes + waveform")
		}
		w, err := parseWaveform(strings.Join(fields[3:], " "))
		if err != nil {
			return err
		}
		p, n := c.Node(fields[1]), c.Node(fields[2])
		if line[0] == 'V' || line[0] == 'v' {
			c.AddV(name, p, n, w)
		} else {
			c.AddI(name, p, n, w)
		}
	case 'M', 'm':
		if len(fields) != 8 {
			return fmt.Errorf("mosfet wants d g s b model W= L=")
		}
		w, l, err := parseWL(fields[6], fields[7])
		if err != nil {
			return err
		}
		dev, err := modelInstance(fields[5], w, l)
		if err != nil {
			return err
		}
		c.AddMOS(name, c.Node(fields[1]), c.Node(fields[2]), c.Node(fields[3]), c.Node(fields[4]), dev)
	default:
		return fmt.Errorf("unknown element %q", name)
	}
	return nil
}

func parseICToken(tok string) (node string, val float64, ok bool) {
	lower := strings.ToLower(tok)
	if !strings.HasPrefix(lower, "v(") {
		return "", 0, false
	}
	close := strings.Index(tok, ")")
	eq := strings.Index(tok, "=")
	if close < 0 || eq < close {
		return "", 0, false
	}
	node = tok[2:close]
	v, err := ParseValue(tok[eq+1:])
	if err != nil {
		return "", 0, false
	}
	return node, v, true
}

func parseWL(wTok, lTok string) (w, l float64, err error) {
	get := func(tok, key string) (float64, error) {
		lower := strings.ToLower(tok)
		if !strings.HasPrefix(lower, key+"=") {
			return 0, fmt.Errorf("expected %s=<value>, got %q", key, tok)
		}
		return ParseValue(tok[len(key)+1:])
	}
	w, err = get(wTok, "w")
	if err != nil {
		return 0, 0, err
	}
	l, err = get(lTok, "l")
	return w, l, err
}

func modelInstance(model string, w, l float64) (device.Device, error) {
	switch strings.ToLower(model) {
	case "nmos":
		return vsmodel.NMOS40(w).WithGeometry(w, l).Bind(), nil
	case "pmos":
		return vsmodel.PMOS40(w).WithGeometry(w, l).Bind(), nil
	case "nmos_golden":
		p := bsim.NMOS40(w).WithGeometry(w, l)
		return &p, nil
	case "pmos_golden":
		p := bsim.PMOS40(w).WithGeometry(w, l)
		return &p, nil
	}
	return nil, fmt.Errorf("unknown model %q", model)
}

func parseWaveform(spec string) (Waveform, error) {
	s := strings.TrimSpace(spec)
	lower := strings.ToLower(s)
	switch {
	case strings.HasPrefix(lower, "dc"):
		v, err := ParseValue(strings.TrimSpace(s[2:]))
		if err != nil {
			return nil, err
		}
		return DC(v), nil
	case strings.HasPrefix(lower, "pulse"):
		args, err := parseParen(s[5:])
		if err != nil {
			return nil, err
		}
		if len(args) < 6 || len(args) > 7 {
			return nil, fmt.Errorf("PULSE wants 6-7 args, got %d", len(args))
		}
		p := Pulse{V0: args[0], V1: args[1], Delay: args[2], Rise: args[3], Fall: args[4], Width: args[5]}
		if len(args) == 7 {
			p.Period = args[6]
		}
		return p, nil
	case strings.HasPrefix(lower, "pwl"):
		args, err := parseParen(s[3:])
		if err != nil {
			return nil, err
		}
		if len(args) < 2 || len(args)%2 != 0 {
			return nil, fmt.Errorf("PWL wants time/value pairs")
		}
		p := PWL{}
		for i := 0; i < len(args); i += 2 {
			p.T = append(p.T, args[i])
			p.V = append(p.V, args[i+1])
		}
		return p, nil
	default:
		// Bare number = DC.
		v, err := ParseValue(s)
		if err != nil {
			return nil, fmt.Errorf("unknown waveform %q", spec)
		}
		return DC(v), nil
	}
}

func parseParen(s string) ([]float64, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "(") || !strings.HasSuffix(s, ")") {
		return nil, fmt.Errorf("expected parenthesized args, got %q", s)
	}
	inner := strings.ReplaceAll(s[1:len(s)-1], ",", " ")
	var out []float64
	for _, tok := range strings.Fields(inner) {
		v, err := ParseValue(tok)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseValue parses a SPICE number with engineering suffix: f(1e-15),
// p(1e-12), n(1e-9), u(1e-6), m(1e-3), k(1e3), meg(1e6), g(1e9), t(1e12).
// Trailing unit letters after the suffix are ignored (e.g. "40nm", "1pF").
// The result is always finite: a value that overflows float64, with or
// without its suffix, is an error.
func ParseValue(tok string) (float64, error) {
	v, err := parseValue(tok)
	if err == nil && math.IsInf(v, 0) {
		return 0, fmt.Errorf("value %q out of range", tok)
	}
	return v, err
}

func parseValue(tok string) (float64, error) {
	t := strings.ToLower(strings.TrimSpace(tok))
	if t == "" {
		return 0, fmt.Errorf("empty value")
	}
	// Split numeric prefix.
	i := 0
	for i < len(t) {
		ch := t[i]
		if ch >= '0' && ch <= '9' || ch == '+' || ch == '-' || ch == '.' {
			i++
			continue
		}
		if ch == 'e' && i+1 < len(t) && (t[i+1] == '+' || t[i+1] == '-' || t[i+1] >= '0' && t[i+1] <= '9') {
			i += 2
			for i < len(t) && t[i] >= '0' && t[i] <= '9' {
				i++
			}
			continue
		}
		break
	}
	num, err := strconv.ParseFloat(t[:i], 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", tok)
	}
	suffix := t[i:]
	switch {
	case suffix == "":
		return num, nil
	case strings.HasPrefix(suffix, "meg"):
		return num * 1e6, nil
	case suffix[0] == 'f':
		return num * 1e-15, nil
	case suffix[0] == 'p':
		return num * 1e-12, nil
	case suffix[0] == 'n':
		return num * 1e-9, nil
	case suffix[0] == 'u':
		return num * 1e-6, nil
	case suffix[0] == 'm':
		return num * 1e-3, nil
	case suffix[0] == 'k':
		return num * 1e3, nil
	case suffix[0] == 'g':
		return num * 1e9, nil
	case suffix[0] == 't':
		return num * 1e12, nil
	case suffix[0] == 'v' || suffix[0] == 'a' || suffix[0] == 's' || suffix[0] == 'h':
		return num, nil // bare unit letters
	}
	return 0, fmt.Errorf("unknown suffix %q", suffix)
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
