package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/mediator"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// The wire tests pin the bytes the serving path sends. The golden files
// under testdata/ hold the bodies the former string-building marshaller
// served for the wireMediator fixture; every view and query answer must
// stay byte-identical to them.

const wireDTD = `<!DOCTYPE lab [
  <!ELEMENT lab (member*)>
  <!ELEMENT member (name, note?)>
  <!ELEMENT name (#PCDATA)>
  <!ELEMENT note (#PCDATA)>
]>`

// wireTexts put every escaped character and multi-byte UTF-8 on the wire.
var wireTexts = []string{`R&D <Lab> "West"`, "Zoë – 研究所", "a > b & c < d", "plain", "😀&\"<>"}

// wireQueries are the POST /views/members/query bodies the golden files
// pin, by golden file name: a large answer (well past the writer's
// buffer) and a small one (under the 2 KB net/http buffers before it
// chunks).
var wireQueries = map[string]string{
	"query_notes": `notes = SELECT X WHERE <members> X:<member><note/></member> </members>`,
	"query_solo":  `solo = SELECT X WHERE <members> X:<member><name>solo</name></member> </members>`,
}

// wireMediator serves a members view over one source of 600 members whose
// names, notes and IDs carry markup characters; one member is named
// "solo" so a text query has a single-member answer.
func wireMediator(t testing.TB) *mediator.Mediator {
	t.Helper()
	d, err := dtd.Parse(wireDTD)
	if err != nil {
		t.Fatal(err)
	}
	root := xmlmodel.NewElement("lab")
	for i := 0; i < 600; i++ {
		name := wireTexts[i%len(wireTexts)]
		if i == 7 {
			name = "solo"
		}
		m := xmlmodel.NewElement("member", xmlmodel.NewText("name", name))
		if i%3 == 0 {
			m.Children = append(m.Children, xmlmodel.NewText("note", wireTexts[(i/3)%len(wireTexts)]))
		}
		m.ID = fmt.Sprintf(`m%d&"<%s>`, i, []string{"é", "x", "研"}[i%3])
		root.Children = append(root.Children, m)
	}
	src, err := mediator.NewStaticSource("lab", &xmlmodel.Document{DocType: "lab", Root: root}, d)
	if err != nil {
		t.Fatal(err)
	}
	m := mediator.New("wire")
	if err := m.AddSource(src); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineView("lab", xmas.MustParse(`members = SELECT X WHERE <lab> X:<member/> </lab>`)); err != nil {
		t.Fatal(err)
	}
	return m
}

// wireBodies fetches every pinned body from a server over m, keyed by
// golden file name, with the responses' Content-Length headers.
func wireBodies(t testing.TB, m *mediator.Mediator) (map[string]string, map[string]string) {
	t.Helper()
	srv := httptest.NewServer(New(m))
	defer srv.Close()
	bodies, lengths := map[string]string{}, map[string]string{}
	read := func(name string, resp *http.Response, err error) {
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s: %s", name, resp.Status, b)
		}
		bodies[name], lengths[name] = string(b), resp.Header.Get("Content-Length")
	}
	resp, err := http.Get(srv.URL + "/views/members")
	read("view", resp, err)
	for name, q := range wireQueries {
		resp, err := http.Post(srv.URL+"/views/members/query", "text/plain", strings.NewReader(q))
		read(name, resp, err)
	}
	return bodies, lengths
}

// TestWireBytesUnchanged: GET /views/{v} and POST /views/{v}/query bodies
// are byte-identical to the pinned ones, and a small answer is still sent
// with a Content-Length rather than chunked.
func TestWireBytesUnchanged(t *testing.T) {
	bodies, lengths := wireBodies(t, wireMediator(t))
	for name, got := range bodies {
		want, err := os.ReadFile(filepath.Join("testdata", "wire_"+name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: served %d bytes that differ from the pinned %d-byte body", name, len(got), len(want))
		}
	}
	if n := len(bodies["view"]); n < 4*8192 {
		t.Errorf("view answer of %d bytes is too small to span several writer buffers", n)
	}
	if small := bodies["query_solo"]; len(small) >= 2048 || lengths["query_solo"] != fmt.Sprint(len(small)) {
		t.Errorf("small answer (%d bytes) sent with Content-Length %q, want %d", len(small), lengths["query_solo"], len(small))
	}
}

var errClientGone = errors.New("client gone")

// brokenResponse is a ResponseWriter whose connection breaks after limit
// body bytes; it counts the writes attempted after the first failure.
type brokenResponse struct {
	header         http.Header
	limit, written int
	failed         bool
	afterFailure   int
}

func (w *brokenResponse) Header() http.Header { return w.header }

func (w *brokenResponse) WriteHeader(int) {}

func (w *brokenResponse) Write(p []byte) (int, error) {
	if w.failed {
		w.afterFailure++
		return 0, errClientGone
	}
	if w.written+len(p) > w.limit {
		n := w.limit - w.written
		w.written, w.failed = w.limit, true
		return n, errClientGone
	}
	w.written += len(p)
	return len(p), nil
}

// TestHandlersStopWritingOnBrokenConnection: when the response writer
// fails mid-answer, the view and query handlers return without panicking
// and write nothing after the error.
func TestHandlersStopWritingOnBrokenConnection(t *testing.T) {
	h := New(wireMediator(t))
	requests := map[string]func() *http.Request{
		"view": func() *http.Request { return httptest.NewRequest(http.MethodGet, "/views/members", nil) },
		"query": func() *http.Request {
			return httptest.NewRequest(http.MethodPost, "/views/members/query", strings.NewReader(wireQueries["query_notes"]))
		},
	}
	for name, req := range requests {
		for _, limit := range []int{0, 10, 300, 9000, 20000} {
			w := &brokenResponse{header: http.Header{}, limit: limit}
			h.ServeHTTP(w, req())
			if !w.failed {
				t.Errorf("%s limit %d: answer fit before the break; the test needs a larger fixture", name, limit)
			}
			if w.afterFailure != 0 {
				t.Errorf("%s limit %d: %d writes after the connection broke", name, limit, w.afterFailure)
			}
		}
	}
}
