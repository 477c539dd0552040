package webgraph

import (
	"fmt"
	"math"

	"specweb/internal/stats"
)

// Profile parameterizes site generation. The two stock profiles —
// DepartmentSite and MediaSite — are calibrated to the two workloads the
// paper draws on: the cs-www.bu.edu departmental server and the Rolling
// Stones multimedia site mentioned in §2's footnote.
type Profile struct {
	Name  string
	Pages int // number of HTML pages

	// Structure.
	EmbeddedPerPage stats.Dist // objects per page (drawn per page)
	LinksPerPage    stats.Dist // out-links per page
	SharedObjProb   float64    // probability an embedding reuses an existing object (site-wide icons)

	// Sizes in bytes.
	PageSize   stats.Dist
	ObjectSize stats.Dist

	// Popularity shaping.
	EntryFraction float64 // fraction of pages that are session entry points
	EntrySkew     float64 // Zipf skew for entry selection
	// LinkAttachment controls hyperlink target choice: with this
	// probability a link targets a page drawn by preferential attachment
	// (popular targets attract more links); otherwise a uniform page.
	// Preferential attachment is what makes document popularity heavy-
	// tailed, as in Figure 1.
	LinkAttachment float64
	// LinkHomophily is the probability that a link's target is drawn from
	// pages of the same audience class as the linking page. Homophily
	// keeps traversal strides audience-coherent (a local user browsing a
	// local section stays in it), which is what lets the analyzer recover
	// the paper's locally/remotely popular classes from traces, while
	// anchor choice during navigation stays uniform (preserving the 1/k
	// traversal-probability peaks of Figure 4).
	LinkHomophily float64

	// Audience mix. Fractions of pages of each audience class; the paper
	// observed 510 locally / 99 remotely / 365 globally popular documents
	// out of 974 accessed.
	LocalFraction  float64
	RemoteFraction float64

	// Update behaviour (per-day probabilities, §2).
	MutableFraction  float64 // fraction of locally-popular pages that mutate often
	MutableUpdate    float64 // per-day update probability of mutable documents
	ImmutableUpdate  float64 // per-day update probability of everything else
	ObjectUpdateProb float64 // objects change essentially never
}

// ProfileByName resolves a command-line profile name — the switch shared
// by every cmd that builds a site.
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "department":
		return DepartmentSite(), nil
	case "media":
		return MediaSite(), nil
	case "tiny":
		return TinySite(), nil
	}
	return Profile{}, fmt.Errorf("webgraph: unknown profile %q (want department, media, or tiny)", name)
}

// DepartmentSite returns a profile calibrated to the cs-www.bu.edu numbers
// reported in §2: roughly 2000 documents totalling ≈50 MB, strongly skewed
// popularity, a majority-local audience, and infrequent updates outside a
// small mutable core.
func DepartmentSite() Profile {
	return Profile{
		Name:            "department",
		Pages:           700,
		EmbeddedPerPage: stats.NewGeometric(0.45), // ≈1.2 objects per page
		LinksPerPage:    stats.NewUniform(1, 9),   // integer anchors, 1..8
		SharedObjProb:   0.35,
		PageSize:        stats.NewLognormal(8.6, 1.0),            // median ≈5.4 KB, mean ≈8.9 KB
		ObjectSize:      stats.NewBoundedPareto(1500, 1.12, 8e6), // heavy tail, mean ≈9 KB, ≤8 MB
		EntryFraction:   0.06,
		EntrySkew:       1.1,
		LinkAttachment:  0.75,
		LinkHomophily:   0.85,
		LocalFraction:   0.52,
		RemoteFraction:  0.10,
		MutableFraction: 0.15,
		MutableUpdate:   0.02,  // ≈2%/day, §2's locally-popular rate
		ImmutableUpdate: 0.004, // <0.5%/day
	}
}

// MediaSite returns a profile for a multimedia-heavy site in the spirit of
// the Rolling Stones server (§2 footnote): fewer pages, much larger objects,
// sharper popularity skew.
func MediaSite() Profile {
	return Profile{
		Name:            "media",
		Pages:           220,
		EmbeddedPerPage: stats.NewGeometric(0.30), // ≈2.3 objects per page
		LinksPerPage:    stats.NewUniform(1, 6),
		SharedObjProb:   0.20,
		PageSize:        stats.NewLognormal(8.6, 0.8),
		ObjectSize:      stats.NewBoundedPareto(20e3, 1.1, 40e6), // audio/video tail
		EntryFraction:   0.05,
		EntrySkew:       1.35,
		LinkAttachment:  0.85,
		LinkHomophily:   0.6,
		LocalFraction:   0.05,
		RemoteFraction:  0.70,
		MutableFraction: 0.05,
		MutableUpdate:   0.02,
		ImmutableUpdate: 0.002,
	}
}

// TinySite returns a small profile for tests and the quickstart example.
// The entry fraction is raised so that even a 60-page site exposes entry
// pages of every audience class.
func TinySite() Profile {
	p := DepartmentSite()
	p.Name = "tiny"
	p.Pages = 60
	p.EntryFraction = 0.2
	return p
}

// Validate reports whether the profile is internally consistent.
func (p *Profile) Validate() error {
	if p.Pages <= 0 {
		return fmt.Errorf("webgraph: profile needs Pages > 0, got %d", p.Pages)
	}
	if p.EmbeddedPerPage == nil || p.LinksPerPage == nil || p.PageSize == nil || p.ObjectSize == nil {
		return fmt.Errorf("webgraph: profile %q has nil distributions", p.Name)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"SharedObjProb", p.SharedObjProb},
		{"EntryFraction", p.EntryFraction},
		{"LinkAttachment", p.LinkAttachment},
		{"LinkHomophily", p.LinkHomophily},
		{"LocalFraction", p.LocalFraction},
		{"RemoteFraction", p.RemoteFraction},
		{"MutableFraction", p.MutableFraction},
		{"MutableUpdate", p.MutableUpdate},
		{"ImmutableUpdate", p.ImmutableUpdate},
		{"ObjectUpdateProb", p.ObjectUpdateProb},
	} {
		if f.v < 0 || f.v > 1 || math.IsNaN(f.v) {
			return fmt.Errorf("webgraph: profile %q: %s = %v outside [0,1]", p.Name, f.name, f.v)
		}
	}
	if p.LocalFraction+p.RemoteFraction > 1 {
		return fmt.Errorf("webgraph: profile %q: audience fractions sum to %v > 1",
			p.Name, p.LocalFraction+p.RemoteFraction)
	}
	return nil
}

// Generate builds a site from the profile using the given random source.
// The same profile and seed always produce the identical site.
func Generate(p Profile, g *stats.RNG) (*Site, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &Site{Name: p.Name, EntrySkew: p.EntrySkew}

	// 1. Create pages with sizes and audiences.
	for i := 0; i < p.Pages; i++ {
		size := int64(p.PageSize.Sample(g))
		if size < 256 {
			size = 256
		}
		aud := Global
		u := g.Float64()
		switch {
		case u < p.LocalFraction:
			aud = LocalOnly
		case u < p.LocalFraction+p.RemoteFraction:
			aud = RemoteOnly
		}
		s.Docs = append(s.Docs, Document{
			ID:       DocID(len(s.Docs)),
			Path:     fmt.Sprintf("/pages/p%04d.html", i),
			Kind:     Page,
			Size:     size,
			Audience: aud,
		})
	}

	// 2. Attach embedded objects, sharing some across pages.
	var objects []DocID
	for pid := 0; pid < p.Pages; pid++ {
		n := int(p.EmbeddedPerPage.Sample(g))
		for k := 0; k < n; k++ {
			var oid DocID
			if len(objects) > 0 && g.Bool(p.SharedObjProb) {
				oid = objects[g.Intn(len(objects))]
			} else {
				size := int64(p.ObjectSize.Sample(g))
				if size < 64 {
					size = 64
				}
				oid = DocID(len(s.Docs))
				s.Docs = append(s.Docs, Document{
					ID:       oid,
					Path:     fmt.Sprintf("/img/o%05d", len(objects)),
					Kind:     Object,
					Size:     size,
					Audience: s.Docs[pid].Audience,
				})
				objects = append(objects, oid)
			}
			// Avoid duplicate embeddings of the same object in one page.
			dup := false
			for _, e := range s.Docs[pid].Embedded {
				if e == oid {
					dup = true
					break
				}
			}
			if !dup {
				s.Docs[pid].Embedded = append(s.Docs[pid].Embedded, oid)
			}
		}
	}

	// 3. Wire hyperlinks with preferential attachment and audience
	// homophily. inWeight[i] starts at 1 so every page is reachable in
	// principle.
	inWeight := make([]int, p.Pages)
	for i := range inWeight {
		inWeight[i] = 1
	}
	byAud := make(map[Audience][]int)
	allPages := make([]int, p.Pages)
	var publicPages []int // everything except the internal (LocalOnly) section
	for i := 0; i < p.Pages; i++ {
		allPages[i] = i
		byAud[s.Docs[i].Audience] = append(byAud[s.Docs[i].Audience], i)
		if s.Docs[i].Audience != LocalOnly {
			publicPages = append(publicPages, i)
		}
	}
	drawPreferential := func(pool []int) DocID {
		total := 0
		for _, i := range pool {
			total += inWeight[i]
		}
		t := g.Intn(total)
		for _, i := range pool {
			t -= inWeight[i]
			if t < 0 {
				return DocID(i)
			}
		}
		return DocID(pool[len(pool)-1])
	}
	for pid := 0; pid < p.Pages; pid++ {
		n := int(p.LinksPerPage.Sample(g))
		if n < 1 {
			n = 1
		}
		for k := 0; k < n; k++ {
			// Cross-audience links are asymmetric: internal (LocalOnly)
			// pages may link anywhere, but public pages do not link into
			// the internal section — department sites of the era kept
			// internal material reachable from internal indexes, not
			// from the public front. This is what keeps the remote
			// share of internal pages below the paper's 15% threshold.
			pool := allPages
			if s.Docs[pid].Audience != LocalOnly && len(publicPages) > 1 {
				pool = publicPages
			}
			if same := byAud[s.Docs[pid].Audience]; len(same) > 1 && g.Bool(p.LinkHomophily) {
				pool = same
			}
			var target DocID
			if g.Bool(p.LinkAttachment) {
				target = drawPreferential(pool)
			} else {
				target = DocID(pool[g.Intn(len(pool))])
			}
			if target == DocID(pid) {
				continue // no self links
			}
			dup := false
			for _, l := range s.Docs[pid].Links {
				if l == target {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			s.Docs[pid].Links = append(s.Docs[pid].Links, target)
			inWeight[target] += 4 // rich get richer
		}
	}

	// 4. Choose entry pages: preferential targets make natural entries
	// (the home page is the most linked-to page).
	nEntries := int(float64(p.Pages) * p.EntryFraction)
	if nEntries < 1 {
		nEntries = 1
	}
	type pw struct {
		id DocID
		w  int
	}
	best := make([]pw, 0, p.Pages)
	for i := 0; i < p.Pages; i++ {
		best = append(best, pw{DocID(i), inWeight[i]})
	}
	// Partial selection sort for the top nEntries by in-weight; stable
	// under ties by ID so generation stays deterministic.
	for i := 0; i < nEntries && i < len(best); i++ {
		maxJ := i
		for j := i + 1; j < len(best); j++ {
			if best[j].w > best[maxJ].w ||
				(best[j].w == best[maxJ].w && best[j].id < best[maxJ].id) {
				maxJ = j
			}
		}
		best[i], best[maxJ] = best[maxJ], best[i]
		s.Entries = append(s.Entries, best[i].id)
	}

	// 5. Assign update probabilities: a small mutable core among
	// locally-popular pages updates often; everything else rarely.
	for i := range s.Docs {
		d := &s.Docs[i]
		switch {
		case d.Kind == Object:
			d.UpdateProb = p.ObjectUpdateProb
		case d.Audience == LocalOnly && g.Bool(p.MutableFraction):
			d.UpdateProb = p.MutableUpdate
		default:
			d.UpdateProb = p.ImmutableUpdate
		}
	}

	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("webgraph: generated site failed validation: %w", err)
	}
	return s, nil
}
