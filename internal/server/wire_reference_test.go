package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"
)

// referenceDecodeSliceRequest is the encoding/json decoder that
// DecodeSliceRequest replaced, kept as its reference: it reads exactly one
// SliceRequest JSON object from r, with unknown fields an error, and
// anything but whitespace after the object an error too. Read errors are
// returned as they are.
func referenceDecodeSliceRequest(r io.Reader) (SliceRequest, error) {
	var req SliceRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	_, err := dec.Token()
	var syntax *json.SyntaxError
	switch {
	case err == io.EOF:
		return req, nil
	case err == nil || errors.As(err, &syntax):
		return req, errors.New("data after the request's JSON object")
	}
	return req, err
}

// referenceSliceResponse is the encoding/json encoding that
// appendSliceResponse replaced, kept as its reference: what writeJSON's
// indenting encoder writes for resp.
func referenceSliceResponse(t testing.TB, resp *SliceResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
