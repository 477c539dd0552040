// Package webgraph models a synthetic web site: a set of documents (HTML
// pages and embedded multimedia objects) connected by embedding and
// hyperlink relations, with heavy-tailed sizes and audience annotations.
//
// The paper's trace-driven evaluation ran against the real cs-www.bu.edu
// site of 1995, which is not available; webgraph is the substitute substrate.
// Its structure is what gives the synthesized traces the properties the
// paper's results rest on:
//
//   - embedding relations produce the "embedding dependencies" of §3.1
//     (documents always requested together, p[i,j] = 1);
//   - uniform link-following over an integer number of anchors produces the
//     "traversal dependencies" with the 1/k probability peaks of Figure 4;
//   - preferential attachment of hyperlinks plus Zipf entry-page selection
//     produces the heavy-tailed document popularity of Figure 1;
//   - audience annotations (local vs. remote interest) produce the
//     remote/local/global popularity classes of §2;
//   - per-document update probabilities produce the mutable/immutable split.
package webgraph

import (
	"errors"
	"fmt"
	"sync"
)

// DocID identifies a document within a Site. IDs are dense: valid IDs are
// exactly [0, len(Site.Docs)).
type DocID int32

// None is the sentinel for "no document".
const None DocID = -1

// Kind distinguishes the two structural document classes.
type Kind uint8

const (
	// Page is an HTML document: it embeds objects and links to other pages.
	Page Kind = iota
	// Object is an embedded multimedia object (image, audio, ...).
	Object
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Page:
		return "page"
	case Object:
		return "object"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Audience biases which client population requests a document; it is the
// generator-side ground truth behind the paper's remotely/locally/globally
// popular classification (§2), which the analyzer must recover from traces.
type Audience uint8

const (
	// Global documents interest local and remote clients alike.
	Global Audience = iota
	// LocalOnly documents interest mostly clients inside the organization.
	LocalOnly
	// RemoteOnly documents interest mostly clients outside the organization.
	RemoteOnly
)

// String returns the audience name.
func (a Audience) String() string {
	switch a {
	case Global:
		return "global"
	case LocalOnly:
		return "local"
	case RemoteOnly:
		return "remote"
	default:
		return fmt.Sprintf("audience(%d)", uint8(a))
	}
}

// Document is one retrievable object on the site.
type Document struct {
	ID   DocID
	Path string // URL path, unique within the site
	Kind Kind
	Size int64 // bytes

	// Embedded lists objects always retrieved along with this page
	// (images etc.). Empty for Kind == Object.
	Embedded []DocID
	// Links lists hyperlink targets (always pages). Empty for objects.
	Links []DocID

	// Audience biases the requesting population.
	Audience Audience
	// UpdateProb is the per-day probability that the document's content
	// changes. The paper found ≈2%/day for locally popular documents and
	// <0.5%/day for the rest, with frequent updates confined to a small
	// "mutable" subset.
	UpdateProb float64
}

// IsPage reports whether the document is an HTML page.
func (d *Document) IsPage() bool { return d.Kind == Page }

// Site is a generated web site.
type Site struct {
	Name string
	Docs []Document

	// Entries are the pages at which sessions may begin (home page,
	// popular deep links). Entry i is drawn with Zipf(EntrySkew) rank i+1.
	Entries   []DocID
	EntrySkew float64

	// byPath is built on first lookup; indexOnce makes that safe when a
	// server's concurrent first requests race to it.
	indexOnce sync.Once
	byPath    map[string]DocID
}

// Doc returns the document with the given ID. It panics if id is invalid;
// IDs originate inside the package, so an invalid one is a programming
// error, not an input error.
func (s *Site) Doc(id DocID) *Document {
	return &s.Docs[id]
}

// Valid reports whether id names a document of this site.
func (s *Site) Valid(id DocID) bool {
	return id >= 0 && int(id) < len(s.Docs)
}

// ByPath returns the document with the given URL path, or nil.
func (s *Site) ByPath(path string) *Document {
	s.indexOnce.Do(s.indexPaths)
	id, ok := s.byPath[path]
	if !ok {
		return nil
	}
	return &s.Docs[id]
}

func (s *Site) indexPaths() {
	s.byPath = make(map[string]DocID, len(s.Docs))
	for i := range s.Docs {
		s.byPath[s.Docs[i].Path] = s.Docs[i].ID
	}
}

// NumDocs returns the total number of documents.
func (s *Site) NumDocs() int { return len(s.Docs) }

// NumPages returns the number of HTML pages.
func (s *Site) NumPages() int {
	n := 0
	for i := range s.Docs {
		if s.Docs[i].Kind == Page {
			n++
		}
	}
	return n
}

// TotalBytes returns the total size of all documents, the paper's "50+
// MBytes available through the server".
func (s *Site) TotalBytes() int64 {
	var t int64
	for i := range s.Docs {
		t += s.Docs[i].Size
	}
	return t
}

// PageBytes returns the size of a page plus all its embedded objects — the
// bytes a browser transfers to render it.
func (s *Site) PageBytes(id DocID) int64 {
	d := s.Doc(id)
	t := d.Size
	for _, e := range d.Embedded {
		t += s.Doc(e).Size
	}
	return t
}

// Validate checks the structural invariants of the site. Generated sites
// always pass; the check exists for sites loaded or constructed by hand.
func (s *Site) Validate() error {
	if len(s.Docs) == 0 {
		return errors.New("webgraph: site has no documents")
	}
	seen := make(map[string]bool, len(s.Docs))
	for i := range s.Docs {
		d := &s.Docs[i]
		if d.ID != DocID(i) {
			return fmt.Errorf("webgraph: doc at index %d has ID %d", i, d.ID)
		}
		if d.Path == "" {
			return fmt.Errorf("webgraph: doc %d has empty path", i)
		}
		if seen[d.Path] {
			return fmt.Errorf("webgraph: duplicate path %q", d.Path)
		}
		seen[d.Path] = true
		if d.Size <= 0 {
			return fmt.Errorf("webgraph: doc %d has non-positive size %d", i, d.Size)
		}
		if d.UpdateProb < 0 || d.UpdateProb > 1 {
			return fmt.Errorf("webgraph: doc %d has update probability %v outside [0,1]", i, d.UpdateProb)
		}
		if d.Kind == Object && (len(d.Embedded) > 0 || len(d.Links) > 0) {
			return fmt.Errorf("webgraph: object %d has structure", i)
		}
		for _, e := range d.Embedded {
			if !s.Valid(e) {
				return fmt.Errorf("webgraph: doc %d embeds invalid ID %d", i, e)
			}
			if s.Doc(e).Kind != Object {
				return fmt.Errorf("webgraph: doc %d embeds non-object %d", i, e)
			}
		}
		for _, l := range d.Links {
			if !s.Valid(l) {
				return fmt.Errorf("webgraph: doc %d links to invalid ID %d", i, l)
			}
			if s.Doc(l).Kind != Page {
				return fmt.Errorf("webgraph: doc %d links to non-page %d", i, l)
			}
		}
	}
	if len(s.Entries) == 0 {
		return errors.New("webgraph: site has no entry pages")
	}
	for _, e := range s.Entries {
		if !s.Valid(e) || s.Doc(e).Kind != Page {
			return fmt.Errorf("webgraph: invalid entry %d", e)
		}
	}
	return nil
}
