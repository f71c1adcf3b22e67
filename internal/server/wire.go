package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// This file is the wire codec of the two hot messages: the body of
// POST /v1/slice, decoded at a worker and at the router, and the body of
// its successful response. Each is one pass over bytes held in one buffer.
// wire_reference_test.go keeps the encoding/json decoder and encoder they
// replaced, and the tests hold the two to the same bytes and decisions.

// ReadBody reads r to its end. A declared length n (Content-Length; -1
// when unknown) of at most limit sizes the buffer exactly, so a body is
// read into one allocation. A longer declared length is not trusted for
// the allocation: that body, like one of unknown length, is read as it
// arrives, with the buffer growing as io.ReadAll grows it. A read error is
// returned with the bytes read before it.
func ReadBody(r io.Reader, n, limit int64) ([]byte, error) {
	size := int64(512)
	if n >= 0 && n <= limit {
		size = n + 1 // one spare byte, so the read that sees EOF needs no growth
	}
	b := make([]byte, 0, size)
	for {
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// DecodeSliceRequest decodes body, the whole body of POST /v1/slice, in
// one pass. It accepts exactly the bodies that encoding/json, with
// DisallowUnknownFields, decodes into a SliceRequest with nothing but
// whitespace after the value, and decodes them to the same value: keys
// match field names as encoding/json matches them (exactly, or else under
// Unicode case folding, after unescaping); a later duplicate key wins, and
// a repeated "criteria" decodes into the elements already there; null
// leaves a string, int or bool field as it is, sets "criteria" to nil and,
// for the whole body, leaves the request empty; invalid UTF-8 and unpaired
// surrogates in strings decode to U+FFFD. Every other body is an error:
// unknown fields, a value of the wrong type, an integer with a fraction or
// exponent or out of int's range, malformed JSON, and any data after the
// object. An empty body is io.EOF, and a body that ends inside its value
// is io.ErrUnexpectedEOF.
func DecodeSliceRequest(body []byte) (SliceRequest, error) {
	return decodeSliceRequest(body, false)
}

// decodeSliceRequest is DecodeSliceRequest for a body that may be only
// the prefix of one: partial says a read error cut the body short. A
// partial body is io.ErrUnexpectedEOF wherever encoding/json's
// json.Decoder would have read on and met the read error rather than
// reject what it had seen: inside the value, at a top-level scalar that
// ends exactly at the cut, and inside a scalar or string that starts the
// data after the object.
func decodeSliceRequest(body []byte, partial bool) (SliceRequest, error) {
	d := reqDecoder{buf: body, partial: partial}
	var req SliceRequest
	d.space()
	if d.pos == len(d.buf) {
		return SliceRequest{}, io.EOF
	}
	var err error
	switch d.buf[d.pos] {
	case '{':
		err = d.object(0, func(key []byte) error { return d.requestField(&req, key) })
	case 'n':
		err = d.scalarEnd(d.literal("null"))
	case '[':
		d.fail("request body is not a JSON object")
		err = d.skip(0)
	default:
		d.fail("request body is not a JSON object")
		err = d.scalarEnd(d.skip(0))
	}
	if err == nil {
		err = d.err
	}
	if err != nil {
		return SliceRequest{}, err
	}
	d.space()
	if d.pos < len(d.buf) {
		if d.partial && d.trailerCut() {
			return SliceRequest{}, io.ErrUnexpectedEOF
		}
		return SliceRequest{}, errors.New("data after the request's JSON object")
	}
	return req, nil
}

// maxNestingDepth is encoding/json's bound on nested arrays and objects;
// one level deeper is a syntax error.
const maxNestingDepth = 10000

// reqDecoder is one decode of a request body.
type reqDecoder struct {
	buf     []byte
	pos     int
	partial bool
	// err is the first type error: an unknown field, or a value that does
	// not fit its field. As in encoding/json, the scan goes on after it,
	// so a syntax error or the end of a partial body further on still
	// takes precedence.
	err error
}

func (d *reqDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("json: "+format+" at offset %d", append(args, d.pos)...)
	}
}

func (d *reqDecoder) syntax() error {
	if d.pos == len(d.buf) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("json: invalid character %q at offset %d", d.buf[d.pos], d.pos)
}

func (d *reqDecoder) space() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// scalarEnd is err, or io.ErrUnexpectedEOF when a top-level scalar ends
// exactly at the end of a partial body: json.Decoder reads one byte past
// a scalar to find its end.
func (d *reqDecoder) scalarEnd(err error) error {
	if err == nil && d.partial && d.pos == len(d.buf) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// trailerCut reports whether the data after the object of a partial body
// is cut short where json.Decoder, looking for the next token, would have
// met the read error: a delimiter or a malformed value is rejected before
// that, and so is a whole value that is followed by more.
func (d *reqDecoder) trailerCut() bool {
	switch d.buf[d.pos] {
	case '{', '[', '}', ']', ':', ',':
		return false
	}
	err := d.skip(0)
	return err == io.ErrUnexpectedEOF || err == nil && d.pos == len(d.buf)
}

// object scans an object, calling member with each unescaped key when
// the value is next; member consumes the value. depth counts the arrays
// and objects around this one.
func (d *reqDecoder) object(depth int, member func(key []byte) error) error {
	if depth+1 > maxNestingDepth {
		return d.syntax()
	}
	d.pos++ // '{'
	d.space()
	if d.pos < len(d.buf) && d.buf[d.pos] == '}' {
		d.pos++
		return nil
	}
	for {
		d.space()
		if d.pos == len(d.buf) || d.buf[d.pos] != '"' {
			return d.syntax()
		}
		key, err := d.key()
		if err != nil {
			return err
		}
		d.space()
		if d.pos == len(d.buf) || d.buf[d.pos] != ':' {
			return d.syntax()
		}
		d.pos++
		d.space()
		if err := member(key); err != nil {
			return err
		}
		d.space()
		if d.pos == len(d.buf) {
			return io.ErrUnexpectedEOF
		}
		switch d.buf[d.pos] {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.syntax()
		}
	}
}

// array scans an array, calling elem when an element is next; elem
// consumes it. depth counts the arrays and objects around this one.
func (d *reqDecoder) array(depth int, elem func() error) error {
	if depth+1 > maxNestingDepth {
		return d.syntax()
	}
	d.pos++ // '['
	d.space()
	if d.pos < len(d.buf) && d.buf[d.pos] == ']' {
		d.pos++
		return nil
	}
	for {
		d.space()
		if err := elem(); err != nil {
			return err
		}
		d.space()
		if d.pos == len(d.buf) {
			return io.ErrUnexpectedEOF
		}
		switch d.buf[d.pos] {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return nil
		default:
			return d.syntax()
		}
	}
}

// key returns the unescaped object key at d.pos: a view of the body when
// it has no escapes and is all ASCII.
func (d *reqDecoder) key() ([]byte, error) {
	raw, err := d.stringLiteral()
	if err != nil || plainEnd(raw, 0) == len(raw) {
		return raw, err
	}
	return unquote(nil, raw)
}

// stringLiteral moves past the string literal at d.pos and returns the
// bytes between its quotes, which unquote checks and decodes. It finds the
// closing quote, the first one not escaped by an odd run of backslashes,
// with bytes.IndexByte; if there is none, scanString tells a literal cut
// short from a malformed one, as encoding/json's scanner does.
func (d *reqDecoder) stringLiteral() ([]byte, error) {
	start := d.pos + 1
	for i := start; ; {
		j := bytes.IndexByte(d.buf[i:], '"')
		if j < 0 {
			return nil, d.scanString()
		}
		j += i
		k := j
		for k > start && d.buf[k-1] == '\\' {
			k--
		}
		if (j-k)%2 == 0 {
			d.pos = j + 1
			return d.buf[start:j], nil
		}
		i = j + 1
	}
}

// field reports whether key names the field name, as encoding/json
// matches keys: exactly, or else equal under Unicode case folding.
func field(key []byte, name string) bool {
	return string(key) == name || bytes.EqualFold(key, []byte(name))
}

func (d *reqDecoder) requestField(req *SliceRequest, key []byte) error {
	switch {
	case field(key, "program"):
		return d.stringValue(&req.Program, 1)
	case field(key, "criteria"):
		return d.criteria(&req.Criteria)
	case field(key, "workers"):
		return d.intValue(&req.Workers, 1)
	case field(key, "no_source"):
		return d.boolValue(&req.NoSource, 1)
	}
	d.fail("unknown field %q", key)
	return d.skip(1)
}

func (d *reqDecoder) criterionField(c *CriterionRequest, key []byte) error {
	const depth = 3 // request object, criteria array, criterion object
	switch {
	case field(key, "kind"):
		return d.stringValue(&c.Kind, depth)
	case field(key, "proc"):
		return d.stringValue(&c.Proc, depth)
	case field(key, "line"):
		return d.intValue(&c.Line, depth)
	case field(key, "stmt"):
		return d.stringValue(&c.Stmt, depth)
	case field(key, "mode"):
		return d.stringValue(&c.Mode, depth)
	case field(key, "label"):
		return d.stringValue(&c.Label, depth)
	}
	d.fail("unknown field %q", key)
	return d.skip(depth)
}

// criteria decodes the "criteria" array as encoding/json decodes into a
// slice: element i decodes into the slice's element i, reusing what a
// previous "criteria" left there, even past its length while within its
// capacity; the slice grows as append grows it, is cut to the elements
// read, and an empty array replaces it with an empty slice.
func (d *reqDecoder) criteria(dst *[]CriterionRequest) error {
	if d.pos == len(d.buf) {
		return io.ErrUnexpectedEOF
	}
	switch d.buf[d.pos] {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		*dst = nil
		return nil
	case '[':
	default:
		d.fail("criteria is not an array")
		return d.skip(1)
	}
	crit := *dst
	i := 0
	err := d.array(1, func() error {
		switch {
		case i < len(crit):
		case i < cap(crit):
			crit = crit[:i+1]
		default:
			crit = append(crit, CriterionRequest{})
		}
		c := &crit[i]
		i++
		if d.pos == len(d.buf) {
			return io.ErrUnexpectedEOF
		}
		switch d.buf[d.pos] {
		case '{':
			return d.object(2, func(key []byte) error { return d.criterionField(c, key) })
		case 'n':
			return d.literal("null")
		}
		d.fail("criterion is not an object")
		return d.skip(2)
	})
	if i == 0 {
		crit = []CriterionRequest{}
	}
	*dst = crit[:i]
	return err
}

// stringValue decodes a string into dst; null leaves dst as it is.
func (d *reqDecoder) stringValue(dst *string, depth int) error {
	if d.pos == len(d.buf) {
		return io.ErrUnexpectedEOF
	}
	switch d.buf[d.pos] {
	case '"':
		raw, err := d.stringLiteral()
		if err != nil {
			return err
		}
		// Unescaping never lengthens the text, but for bytes of invalid
		// UTF-8, which become three-byte U+FFFD. Nothing writes to b once
		// it holds the text, so the string shares its bytes.
		b, err := unquote(make([]byte, 0, len(raw)), raw)
		if err != nil {
			return err
		}
		*dst = unsafe.String(unsafe.SliceData(b), len(b))
		return nil
	case 'n':
		return d.literal("null")
	}
	d.fail("value is not a string")
	return d.skip(depth)
}

// intValue decodes an integer into dst; null leaves dst as it is.
func (d *reqDecoder) intValue(dst *int, depth int) error {
	if d.pos == len(d.buf) {
		return io.ErrUnexpectedEOF
	}
	switch c := d.buf[d.pos]; {
	case c == '-' || '0' <= c && c <= '9':
		start := d.pos
		integer, err := d.number()
		if err != nil {
			return err
		}
		text := d.buf[start:d.pos]
		if !integer {
			d.fail("number %s is not an integer", text)
			return nil
		}
		n, err := strconv.ParseInt(string(text), 10, strconv.IntSize)
		if err != nil {
			d.fail("number %s overflows int", text)
			return nil
		}
		*dst = int(n)
		return nil
	case c == 'n':
		return d.literal("null")
	}
	d.fail("value is not a number")
	return d.skip(depth)
}

// boolValue decodes true or false into dst; null leaves dst as it is.
func (d *reqDecoder) boolValue(dst *bool, depth int) error {
	if d.pos == len(d.buf) {
		return io.ErrUnexpectedEOF
	}
	switch d.buf[d.pos] {
	case 't':
		if err := d.literal("true"); err != nil {
			return err
		}
		*dst = true
		return nil
	case 'f':
		if err := d.literal("false"); err != nil {
			return err
		}
		*dst = false
		return nil
	case 'n':
		return d.literal("null")
	}
	d.fail("value is not a boolean")
	return d.skip(depth)
}

// skip scans one value of any kind without decoding it: the value of an
// unknown field, or one of the wrong type. depth counts the arrays and
// objects around it.
func (d *reqDecoder) skip(depth int) error {
	if d.pos == len(d.buf) {
		return io.ErrUnexpectedEOF
	}
	switch c := d.buf[d.pos]; {
	case c == '{':
		return d.object(depth, func([]byte) error { return d.skip(depth + 1) })
	case c == '[':
		return d.array(depth, func() error { return d.skip(depth + 1) })
	case c == '"':
		return d.scanString()
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	}
	return d.syntax()
}

// literal consumes the literal word (true, false or null).
func (d *reqDecoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.pos == len(d.buf) || d.buf[d.pos] != word[i] {
			return d.syntax()
		}
		d.pos++
	}
	return nil
}

// number scans a JSON number and reports whether it is an integer: no
// fraction and no exponent.
func (d *reqDecoder) number() (integer bool, err error) {
	if d.buf[d.pos] == '-' {
		d.pos++
	}
	switch {
	case d.pos == len(d.buf):
		return false, io.ErrUnexpectedEOF
	case d.buf[d.pos] == '0':
		d.pos++
	case '1' <= d.buf[d.pos] && d.buf[d.pos] <= '9':
		d.digits()
	default:
		return false, d.syntax()
	}
	integer = true
	if d.pos < len(d.buf) && d.buf[d.pos] == '.' {
		integer = false
		d.pos++
		if err := d.someDigits(); err != nil {
			return false, err
		}
	}
	if d.pos < len(d.buf) && (d.buf[d.pos] == 'e' || d.buf[d.pos] == 'E') {
		integer = false
		d.pos++
		if d.pos < len(d.buf) && (d.buf[d.pos] == '+' || d.buf[d.pos] == '-') {
			d.pos++
		}
		if err := d.someDigits(); err != nil {
			return false, err
		}
	}
	return integer, nil
}

func (d *reqDecoder) digits() {
	for d.pos < len(d.buf) && '0' <= d.buf[d.pos] && d.buf[d.pos] <= '9' {
		d.pos++
	}
}

// someDigits consumes one or more digits.
func (d *reqDecoder) someDigits() error {
	if d.pos == len(d.buf) || d.buf[d.pos] < '0' || d.buf[d.pos] > '9' {
		return d.syntax()
	}
	d.digits()
	return nil
}

// scanString moves past the string literal at d.pos, checking it as
// encoding/json's scanner does: no raw control characters, and only the
// escapes \" \\ \/ \b \f \n \r \t and \uXXXX.
func (d *reqDecoder) scanString() error {
	buf, i := d.buf, d.pos+1
	for {
		i = plainEnd(buf, i)
		if i == len(buf) {
			d.pos = i
			return io.ErrUnexpectedEOF
		}
		switch c := buf[i]; {
		case c == '"':
			d.pos = i + 1
			return nil
		case c == '\\':
			n := 2
			if i+1 < len(buf) && buf[i+1] == 'u' {
				n = 6
			}
			for j := i + 1; j < i+n; j++ {
				if j == len(buf) {
					d.pos = j
					return io.ErrUnexpectedEOF
				}
				if n == 2 && !simpleEscape[buf[j]] || n == 6 && j > i+1 && unhex(buf[j]) < 0 {
					d.pos = j
					return d.syntax()
				}
			}
			i += n
		case c < ' ':
			d.pos = i
			return d.syntax()
		default: // a byte outside ASCII
			i++
		}
	}
}

// plainEnd returns the index of the first byte at or after i in buf that
// a string scan must look at: a quote, a backslash, a control character or
// a byte outside ASCII; len(buf) if there is none. It tests eight bytes at
// a time, with the zero-byte test of Hacker's Delight 6-1: a byte of x
// below 0x20, or equal to the quote or the backslash, sets the high bit of
// its byte of the mask, and no lower byte gets a false one.
func plainEnd(buf []byte, i int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; i+8 <= len(buf); i += 8 {
		x := binary.LittleEndian.Uint64(buf[i:])
		q, bs := x^(ones*'"'), x^(ones*'\\')
		m := ((x-ones*' ')&^x | (q-ones)&^q | (bs-ones)&^bs | x) & highs
		if m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	for ; i < len(buf); i++ {
		if c := buf[i]; c == '"' || c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			return i
		}
	}
	return i
}

// simpleEscape marks the characters that may follow a backslash, but for
// the u of a \uXXXX escape.
var simpleEscape = func() (t [256]bool) {
	for _, c := range `"\\/bfnrt` {
		t[c] = true
	}
	return t
}()

func unhex(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// u4 decodes the \uXXXX escape at the start of s, or returns -1.
func u4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		h := unhex(c)
		if h < 0 {
			return -1
		}
		r = r<<4 | h
	}
	return r
}

// unquote appends the text of raw, the bytes between a string literal's
// quotes, to b, as encoding/json unquotes it: escapes decoded, a valid
// surrogate pair joined, and an unpaired surrogate or a byte of invalid
// UTF-8 replaced with U+FFFD. It fails where encoding/json's scanner
// fails: at a raw control character or a malformed escape.
func unquote(b, raw []byte) ([]byte, error) {
	for i := 0; i < len(raw); {
		j := plainEnd(raw, i)
		b = append(b, raw[i:j]...)
		if i = j; i == len(raw) {
			break
		}
		switch c := raw[i]; {
		case c == '\\' && i+1 < len(raw):
			switch raw[i+1] {
			case '"', '\\', '/':
				b = append(b, raw[i+1])
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := u4(raw[i:])
				if r < 0 {
					return nil, errBadString
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if pair := utf16.DecodeRune(r, u4(raw[i:])); pair != utf8.RuneError {
						b = utf8.AppendRune(b, pair)
						i += 6
						continue
					}
					r = utf8.RuneError
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				return nil, errBadString
			}
			i += 2
		case c < utf8.RuneSelf: // a control character, or a lone backslash
			return nil, errBadString
		default:
			r, size := utf8.DecodeRune(raw[i:])
			if r == utf8.RuneError && size == 1 {
				b = utf8.AppendRune(b, utf8.RuneError)
			} else {
				b = append(b, raw[i:i+size]...)
			}
			i += size
		}
	}
	return b, nil
}

var errBadString = errors.New("json: invalid character in string literal")

// appendSliceResponse appends r as json.NewEncoder with SetIndent("", "  ")
// writes it, byte for byte: fields in declaration order, indented two
// spaces a level, ": " after keys, omitempty fields left out, nil Results
// as null, variant_counts in key order, strings escaped as encoding/json
// escapes them for HTML, and a final newline.
func appendSliceResponse(b []byte, r *SliceResponse) []byte {
	b = append(b, "{\n  \"program_key\": "...)
	b = appendQuoted(b, r.ProgramKey)
	b = append(b, ",\n  \"cache_hit\": "...)
	b = strconv.AppendBool(b, r.CacheHit)
	if r.Deduped {
		b = append(b, ",\n  \"deduped\": true"...)
	}
	if r.Advanced {
		b = append(b, ",\n  \"advanced\": true"...)
	}
	b = append(b, ",\n  \"results\": "...)
	switch {
	case r.Results == nil:
		b = append(b, "null"...)
	case len(r.Results) == 0:
		b = append(b, "[]"...)
	default:
		var keys []string
		for i := range r.Results {
			if i == 0 {
				b = append(b, "[\n    {\n      \"label\": "...)
			} else {
				b = append(b, ",\n    {\n      \"label\": "...)
			}
			b, keys = appendSliceResult(b, &r.Results[i], keys)
			b = append(b, "\n    }"...)
		}
		b = append(b, "\n  ]"...)
	}
	st := &r.Stats
	b = append(b, ",\n  \"stats\": {\n    \"requests\": "...)
	b = strconv.AppendInt(b, int64(st.Requests), 10)
	b = append(b, ",\n    \"failed\": "...)
	b = strconv.AppendInt(b, int64(st.Failed), 10)
	b = append(b, ",\n    \"workers\": "...)
	b = strconv.AppendInt(b, int64(st.Workers), 10)
	b = append(b, ",\n    \"wall_ns\": "...)
	b = strconv.AppendInt(b, int64(st.Wall), 10)
	b = append(b, ",\n    \"work_ns\": "...)
	b = strconv.AppendInt(b, int64(st.Work), 10)
	ph := &st.Phases
	b = append(b, ",\n    \"phases\": {\n      \"encode_ns\": "...)
	b = strconv.AppendInt(b, int64(ph.Encode), 10)
	b = append(b, ",\n      \"prestar_ns\": "...)
	b = strconv.AppendInt(b, int64(ph.Prestar), 10)
	b = append(b, ",\n      \"automaton_ns\": "...)
	b = strconv.AppendInt(b, int64(ph.AutomatonOps), 10)
	b = append(b, ",\n      \"determinize_ns\": "...)
	b = strconv.AppendInt(b, int64(ph.AutomatonDeterminize), 10)
	b = append(b, ",\n      \"minimize_ns\": "...)
	b = strconv.AppendInt(b, int64(ph.AutomatonMinimize), 10)
	b = append(b, ",\n      \"readout_ns\": "...)
	b = strconv.AppendInt(b, int64(ph.Readout), 10)
	b = append(b, ",\n      \"total_ns\": "...)
	b = strconv.AppendInt(b, int64(ph.Total), 10)
	return append(b, "\n    }\n  }\n}\n"...)
}

// appendSliceResult appends the members of one result, from the label's
// value on; keys is scratch for sorting variant_counts, returned for reuse.
func appendSliceResult(b []byte, res *SliceResult, keys []string) ([]byte, []string) {
	b = appendQuoted(b, res.Label)
	b = append(b, ",\n      \"mode\": "...)
	b = appendQuoted(b, res.Mode)
	if res.Source != "" {
		b = append(b, ",\n      \"source\": "...)
		b = appendQuoted(b, res.Source)
	}
	if len(res.VariantCounts) > 0 {
		keys = keys[:0]
		for k := range res.VariantCounts {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		b = append(b, ",\n      \"variant_counts\": {"...)
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n        "...)
			b = appendQuoted(b, k)
			b = append(b, ": "...)
			b = strconv.AppendInt(b, int64(res.VariantCounts[k]), 10)
		}
		b = append(b, "\n      }"...)
	}
	if res.Vertices != 0 {
		b = append(b, ",\n      \"vertices\": "...)
		b = strconv.AppendInt(b, int64(res.Vertices), 10)
	}
	b = append(b, ",\n      \"duration_ns\": "...)
	b = strconv.AppendInt(b, res.DurationNS, 10)
	if res.Error != "" {
		b = append(b, ",\n      \"error\": "...)
		b = appendQuoted(b, res.Error)
	}
	return b, keys
}

// sliceResponseSize bounds the length of r's encoding from above, unless
// a string holds invalid UTF-8, U+2028 or U+2029, whose escapes are
// longer, so the response is appended into one buffer: the fixed text,
// 20 bytes for each integer, and each string's escaped length.
func sliceResponseSize(r *SliceResponse) int {
	n := 640 + quotedSize(r.ProgramKey)
	for i := range r.Results {
		res := &r.Results[i]
		n += 224 + quotedSize(res.Label) + quotedSize(res.Mode) + quotedSize(res.Source) + quotedSize(res.Error)
		for k := range res.VariantCounts {
			n += 32 + quotedSize(k)
		}
	}
	return n
}

// quotedSize is the length of s quoted by appendQuoted, but for the
// longer escapes of invalid UTF-8, U+2028 and U+2029.
func quotedSize(s string) int {
	n := len(s) + 2
	for i := 0; i < len(s); i++ {
		n += int(escapeGrowth[s[i]])
	}
	return n
}

// escapeGrowth is how many bytes escaping adds to each byte below
// utf8.RuneSelf; bytes above it count zero.
var escapeGrowth = func() (g [256]uint8) {
	for c := 0; c < utf8.RuneSelf; c++ {
		switch {
		case c == '"' || c == '\\' || c == '\b' || c == '\f' || c == '\n' || c == '\r' || c == '\t':
			g[c] = 1
		case c < ' ' || c == '<' || c == '>' || c == '&':
			g[c] = 5
		}
	}
	return g
}()

const hexDigits = "0123456789abcdef"

// appendQuoted appends s as a JSON string, escaped as encoding/json
// escapes strings for HTML: \" \\ \b \f \n \r \t, \u00XX for the other
// control characters and for < > &, a \u escape for U+2028 and U+2029,
// and \ufffd for each byte of invalid UTF-8.
func appendQuoted(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if escapeGrowth[c] == 0 {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029: // line and paragraph separators
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
