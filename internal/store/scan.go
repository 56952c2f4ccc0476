package store

// maxDepth is encoding/json's nesting limit: json.Valid refuses a value
// nested in more arrays and objects than this.
const maxDepth = 10000

// scanValue reports whether b is one JSON value exactly when json.Valid
// does — grammar, escapes, raw control bytes in strings and the nesting
// limit — and, for a valid b, whether json.Marshal copies it unchanged as
// a json.RawMessage: it holds no whitespace outside strings and no '<',
// '>', '&', U+2028 or U+2029, which encoding/json would escape. An invalid
// b is never verbatim. scanValue makes one pass over b and allocates
// nothing; FuzzScanValue checks it against encoding/json.
func scanValue(b []byte) (valid, verbatim bool) {
	var objects [maxDepth/64 + 1]uint64 // bit d set: nesting level d is an object
	depth, i := uint(0), 0
	verbatim = true
	space := func() {
		for i < len(b) && isSpace(b[i]) {
			i++
			verbatim = false
		}
	}
	// key scans an object's key, the ':' after it and the whitespace
	// between them.
	key := func() bool {
		if i == len(b) || b[i] != '"' {
			return false
		}
		end, _, html := scanString(b, i)
		if end < 0 {
			return false
		}
		i, verbatim = end, verbatim && !html
		space()
		if i == len(b) || b[i] != ':' {
			return false
		}
		i++
		return true
	}
	for {
		// A value, after optional whitespace, starts at b[i].
		space()
		if i == len(b) {
			return false, false
		}
		switch c := b[i]; c {
		case '{', '[':
			if depth == maxDepth {
				return false, false
			}
			if c == '{' {
				objects[depth/64] |= 1 << (depth % 64)
			} else {
				objects[depth/64] &^= 1 << (depth % 64)
			}
			depth++
			i++
			space()
			if i < len(b) && b[i] == c+2 { // '{'+2 is '}', '['+2 is ']'
				i++
				depth--
				break // an empty container is a whole value
			}
			if c == '{' && !key() {
				return false, false
			}
			continue
		case '"':
			end, _, html := scanString(b, i)
			if end < 0 {
				return false, false
			}
			i, verbatim = end, verbatim && !html
		case 't', 'f', 'n':
			lit := "null"
			if c == 't' {
				lit = "true"
			} else if c == 'f' {
				lit = "false"
			}
			if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
				return false, false
			}
			i += len(lit)
		default:
			// A number, read here rather than by a call: numbers are most
			// of a stored cell's bytes.
			if c == '-' {
				i++
			}
			ok := true
			if i < len(b) && b[i] == '0' {
				i++
			} else {
				i, ok = digits(b, i)
			}
			if ok && i < len(b) && b[i] == '.' {
				i, ok = digits(b, i+1)
			}
			if ok && i < len(b) && b[i]|0x20 == 'e' {
				i++
				if i < len(b) && (b[i] == '+' || b[i] == '-') {
					i++
				}
				i, ok = digits(b, i)
			}
			if !ok {
				return false, false
			}
		}
		// b[:i] ends a whole value: close the containers it completes,
		// until a ',' asks for the next value.
		for {
			space()
			if depth == 0 {
				return i == len(b), i == len(b) && verbatim
			}
			if i == len(b) {
				return false, false
			}
			inObject := objects[(depth-1)/64]>>((depth-1)%64)&1 == 1
			if c := b[i]; c == ',' {
				i++
				space()
				if inObject && !key() {
					return false, false
				}
				break
			} else if inObject && c == '}' || !inObject && c == ']' {
				i++
				depth--
			} else {
				return false, false
			}
		}
	}
}

// isSpace reports whether c is JSON whitespace.
func isSpace(c byte) bool {
	return c <= ' ' && (c == ' ' || c == '\t' || c == '\n' || c == '\r')
}

// digits returns the end of the run of decimal digits at b[i:], and
// whether the run is non-empty.
func digits(b []byte, i int) (int, bool) {
	j := i
	for j < len(b) && b[j]-'0' < 10 {
		j++
	}
	return j, j > i
}

// Classes of a byte inside a JSON string; strPlain bytes are copied as
// they are.
const (
	strPlain = iota
	strEnd   // '"'
	strEsc   // '\\'
	strCtrl  // a control byte, which a string may not hold raw
	strHTML  // '<', '>', '&', and 0xE2, which begins U+2028 and U+2029
)

var strClass = func() (t [256]uint8) {
	for c := 0; c < ' '; c++ {
		t[c] = strCtrl
	}
	t['"'], t['\\'] = strEnd, strEsc
	t['<'], t['>'], t['&'], t[0xE2] = strHTML, strHTML, strHTML, strHTML
	return t
}()

// scanString scans the JSON string whose opening quote is b[i]. It returns
// the index after the closing quote, or -1 if no valid string starts
// there; whether the string holds an escape; and whether it holds a byte
// encoding/json escapes when it compacts the string ('<', '>', '&', U+2028
// or U+2029). Bytes at or above 0x80 need not be UTF-8, as in json.Valid.
func scanString(b []byte, i int) (end int, escaped, html bool) {
	for i++; i < len(b); i++ {
		for i < len(b) && strClass[b[i]] == strPlain {
			i++
		}
		if i == len(b) {
			break
		}
		switch strClass[b[i]] {
		case strEnd:
			return i + 1, escaped, html
		case strEsc:
			escaped = true
			if i++; i == len(b) {
				return -1, false, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i < 5 || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
					return -1, false, false
				}
				i += 4
			default:
				return -1, false, false
			}
		case strCtrl:
			return -1, false, false
		case strHTML:
			if b[i] != 0xE2 || i+2 < len(b) && b[i+1] == 0x80 && b[i+2]&^1 == 0xA8 {
				html = true
			}
		}
	}
	return -1, false, false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c|0x20 && c|0x20 <= 'f'
}
