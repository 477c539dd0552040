package webgraph

import (
	"sync"
	"testing"
	"testing/quick"

	"specweb/internal/stats"
)

func genSite(t *testing.T, p Profile, seed int64) *Site {
	t.Helper()
	s, err := Generate(p, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGenerateDeterminism(t *testing.T) {
	a := genSite(t, DepartmentSite(), 1)
	b := genSite(t, DepartmentSite(), 1)
	if a.NumDocs() != b.NumDocs() {
		t.Fatalf("doc counts differ: %d vs %d", a.NumDocs(), b.NumDocs())
	}
	for i := range a.Docs {
		if a.Docs[i].Size != b.Docs[i].Size || a.Docs[i].Path != b.Docs[i].Path {
			t.Fatalf("doc %d differs between identical seeds", i)
		}
	}
	c := genSite(t, DepartmentSite(), 2)
	if c.TotalBytes() == a.TotalBytes() {
		t.Error("different seeds produced byte-identical sites (suspicious)")
	}
}

func TestGeneratedSiteValidates(t *testing.T) {
	for _, p := range []Profile{DepartmentSite(), MediaSite(), TinySite()} {
		s := genSite(t, p, 7)
		if err := s.Validate(); err != nil {
			t.Errorf("profile %s: %v", p.Name, err)
		}
	}
}

func TestDepartmentSiteScale(t *testing.T) {
	s := genSite(t, DepartmentSite(), 3)
	if s.NumDocs() < 1000 || s.NumDocs() > 4000 {
		t.Errorf("department site has %d docs, want ≈2000", s.NumDocs())
	}
	total := s.TotalBytes()
	// The paper's server held "50+ MBytes"; accept a broad band.
	if total < 10e6 || total > 400e6 {
		t.Errorf("department site holds %d bytes, want tens of MB", total)
	}
	if s.NumPages() != 700 {
		t.Errorf("pages = %d, want 700", s.NumPages())
	}
}

func TestAudienceMix(t *testing.T) {
	s := genSite(t, DepartmentSite(), 11)
	var local, remote, global int
	for i := range s.Docs {
		if s.Docs[i].Kind != Page {
			continue
		}
		switch s.Docs[i].Audience {
		case LocalOnly:
			local++
		case RemoteOnly:
			remote++
		default:
			global++
		}
	}
	n := float64(s.NumPages())
	if f := float64(local) / n; f < 0.40 || f < float64(remote)/n {
		t.Errorf("local fraction %v; want ≈0.52 and > remote", f)
	}
	if f := float64(remote) / n; f < 0.03 || f > 0.20 {
		t.Errorf("remote fraction %v; want ≈0.10", f)
	}
}

func TestLinkDegreeHeavyTail(t *testing.T) {
	s := genSite(t, DepartmentSite(), 13)
	in := make(map[DocID]int)
	for i := range s.Docs {
		for _, l := range s.Docs[i].Links {
			in[l]++
		}
	}
	var max, sum int
	for _, c := range in {
		sum += c
		if c > max {
			max = c
		}
	}
	if len(in) == 0 {
		t.Fatal("no links generated")
	}
	mean := float64(sum) / float64(len(in))
	if float64(max) < 5*mean {
		t.Errorf("max in-degree %d vs mean %.1f: preferential attachment should produce a heavy tail", max, mean)
	}
}

func TestEntriesAreMostLinked(t *testing.T) {
	s := genSite(t, DepartmentSite(), 17)
	if len(s.Entries) < 10 {
		t.Fatalf("only %d entries", len(s.Entries))
	}
	in := make(map[DocID]int)
	for i := range s.Docs {
		for _, l := range s.Docs[i].Links {
			in[l]++
		}
	}
	// The first entry should be among the most linked-to pages.
	first := in[s.Entries[0]]
	better := 0
	for _, c := range in {
		if c > first {
			better++
		}
	}
	if better > 5 {
		t.Errorf("first entry has in-degree %d but %d pages have more", first, better)
	}
}

func TestUpdateProbClasses(t *testing.T) {
	s := genSite(t, DepartmentSite(), 19)
	mutable := 0
	for i := range s.Docs {
		d := &s.Docs[i]
		if d.UpdateProb == 0.02 {
			mutable++
			if d.Audience != LocalOnly {
				t.Errorf("mutable doc %d is %v, want local", d.ID, d.Audience)
			}
		}
	}
	if mutable == 0 {
		t.Error("no mutable documents generated")
	}
	if frac := float64(mutable) / float64(s.NumDocs()); frac > 0.2 {
		t.Errorf("mutable fraction %v: frequent updates should be confined to a small subset", frac)
	}
}

func TestPageBytesIncludesEmbedded(t *testing.T) {
	s := genSite(t, DepartmentSite(), 23)
	for i := range s.Docs {
		d := &s.Docs[i]
		if d.Kind == Page && len(d.Embedded) > 0 {
			if s.PageBytes(d.ID) <= d.Size {
				t.Errorf("PageBytes(%d) = %d, want > own size %d", d.ID, s.PageBytes(d.ID), d.Size)
			}
			return
		}
	}
	t.Fatal("no page with embedded objects found")
}

func TestByPath(t *testing.T) {
	s := genSite(t, TinySite(), 29)
	d0 := &s.Docs[0]
	if got := s.ByPath(d0.Path); got == nil || got.ID != d0.ID {
		t.Errorf("ByPath(%q) = %v", d0.Path, got)
	}
	if s.ByPath("/nonexistent") != nil {
		t.Error("ByPath should return nil for unknown path")
	}
}

// TestByPathConcurrentFirstLookup: a server's first requests reach the
// lazily built path index concurrently; under -race this fails if the
// index build is unsynchronized.
func TestByPathConcurrentFirstLookup(t *testing.T) {
	s := genSite(t, TinySite(), 29)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(d *Document) {
			defer wg.Done()
			if got := s.ByPath(d.Path); got == nil || got.ID != d.ID {
				t.Errorf("ByPath(%q) = %v", d.Path, got)
			}
		}(&s.Docs[i])
	}
	wg.Wait()
}

func TestValidateRejectsBadSites(t *testing.T) {
	cases := []struct {
		name string
		site Site
	}{
		{"empty", Site{}},
		{"bad id", Site{Docs: []Document{{ID: 5, Path: "/a", Size: 1}}}},
		{"empty path", Site{Docs: []Document{{ID: 0, Path: "", Size: 1}}}},
		{"zero size", Site{Docs: []Document{{ID: 0, Path: "/a", Size: 0}}}},
		{"dup path", Site{Docs: []Document{
			{ID: 0, Path: "/a", Size: 1, Kind: Page},
			{ID: 1, Path: "/a", Size: 1, Kind: Page},
		}}},
		{"object with links", Site{Docs: []Document{
			{ID: 0, Path: "/a", Size: 1, Kind: Object, Links: []DocID{0}},
		}}},
		{"bad embed target", Site{Docs: []Document{
			{ID: 0, Path: "/a", Size: 1, Kind: Page, Embedded: []DocID{9}},
		}}},
		{"embed of page", Site{Docs: []Document{
			{ID: 0, Path: "/a", Size: 1, Kind: Page, Embedded: []DocID{1}},
			{ID: 1, Path: "/b", Size: 1, Kind: Page},
		}}},
		{"link to object", Site{Docs: []Document{
			{ID: 0, Path: "/a", Size: 1, Kind: Page, Links: []DocID{1}},
			{ID: 1, Path: "/b", Size: 1, Kind: Object},
		}}},
		{"no entries", Site{Docs: []Document{{ID: 0, Path: "/a", Size: 1, Kind: Page}}}},
		{"bad update prob", Site{
			Docs:    []Document{{ID: 0, Path: "/a", Size: 1, Kind: Page, UpdateProb: 1.5}},
			Entries: []DocID{0},
		}},
		{"entry is object", Site{
			Docs:    []Document{{ID: 0, Path: "/a", Size: 1, Kind: Object}},
			Entries: []DocID{0},
		}},
	}
	for i := range cases {
		c := &cases[i]
		if err := c.site.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid site", c.name)
		}
	}
}

func TestProfileValidate(t *testing.T) {
	p := DepartmentSite()
	p.Pages = 0
	if err := p.Validate(); err == nil {
		t.Error("Pages=0 accepted")
	}
	p = DepartmentSite()
	p.LocalFraction = 0.8
	p.RemoteFraction = 0.5
	if err := p.Validate(); err == nil {
		t.Error("audience fractions > 1 accepted")
	}
	p = DepartmentSite()
	p.SharedObjProb = -0.1
	if err := p.Validate(); err == nil {
		t.Error("negative probability accepted")
	}
	p = DepartmentSite()
	p.PageSize = nil
	if err := p.Validate(); err == nil {
		t.Error("nil distribution accepted")
	}
}

func TestKindAudienceStrings(t *testing.T) {
	if Page.String() != "page" || Object.String() != "object" {
		t.Error("kind strings wrong")
	}
	if Global.String() != "global" || LocalOnly.String() != "local" || RemoteOnly.String() != "remote" {
		t.Error("audience strings wrong")
	}
	if Kind(9).String() == "" || Audience(9).String() == "" {
		t.Error("unknown enums should still print")
	}
}

// Property: generation never produces self-links, duplicate links, or
// duplicate embeddings, for arbitrary small profiles.
func TestGenerateStructureProperty(t *testing.T) {
	f := func(seed int64, pagesRaw uint8) bool {
		p := TinySite()
		p.Pages = int(pagesRaw%50) + 2
		s, err := Generate(p, stats.NewRNG(seed))
		if err != nil {
			return false
		}
		for i := range s.Docs {
			d := &s.Docs[i]
			seen := map[DocID]bool{}
			for _, l := range d.Links {
				if l == d.ID || seen[l] {
					return false
				}
				seen[l] = true
			}
			seenE := map[DocID]bool{}
			for _, e := range d.Embedded {
				if seenE[e] {
					return false
				}
				seenE[e] = true
			}
		}
		return s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
