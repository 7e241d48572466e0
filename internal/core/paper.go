package core

import (
	"fmt"
	"sort"
	"strings"
)

// PaperTemplate is one manuscript template — the `popper paper list` /
// `popper paper add` flow of the BWW use case ("We can use the generic
// article latex template or other more domain-specific ones").
type PaperTemplate struct {
	Name        string
	Description string
	files       map[string]string // paper/-relative files
}

var paperRegistry = map[string]*PaperTemplate{
	"article": {
		Name:        "article",
		Description: "generic LaTeX article",
		files: map[string]string{
			"paper.tex": "\\documentclass{article}\n" +
				"\\title{An Exploration Following the Popper Convention}\n" +
				"\\author{}\n\\begin{document}\n\\maketitle\n" +
				"\\section{Introduction}\n\n" +
				"\\section{Evaluation}\n% reference figures under experiments/<name>/figure.svg\n\n" +
				"\\end{document}\n",
			"build.sh":       "#!/bin/sh\npopper-build-paper\n",
			"references.bib": "% add references here\n",
		},
	},
	"bams": {
		Name:        "bams",
		Description: "Bulletin of the American Meteorological Society article",
		files: map[string]string{
			"paper.tex": "\\documentclass{article}\n% BAMS-style front matter\n" +
				"\\title{A Data-Centric Exploration}\n" +
				"\\begin{document}\n" +
				"\\section*{Abstract}\n\n" +
				"\\section{Data}\n% the dataset is referenced via datasets/*.ref\n\n" +
				"\\section{Analysis}\n\n" +
				"\\end{document}\n",
			"build.sh":       "#!/bin/sh\npopper-build-paper\n",
			"references.bib": "% add references here\n",
		},
	},
	"sigplanconf": {
		Name:        "sigplanconf",
		Description: "ACM SIGPLAN conference paper",
		files: map[string]string{
			"paper.tex": "\\documentclass{sigplanconf}\n" +
				"\\begin{document}\n" +
				"\\title{Title}\n\\maketitle\n" +
				"\\section{Introduction}\n\n" +
				"\\end{document}\n",
			"build.sh":       "#!/bin/sh\npopper-build-paper\n",
			"references.bib": "% add references here\n",
		},
	},
}

// PaperTemplates lists manuscript template names, sorted — the output
// of `popper paper list`.
func PaperTemplates() []string {
	out := make([]string, 0, len(paperRegistry))
	for n := range paperRegistry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// FormatPaperTemplateList renders the `popper paper list` table.
func FormatPaperTemplateList() string {
	var sb strings.Builder
	sb.WriteString("-- available paper templates ---------\n")
	names := PaperTemplates()
	width := columnWidth(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "%-*s%s\n", width, n, paperRegistry[n].Description)
	}
	return sb.String()
}

// columnWidth is the padded width of a name column: the longest name
// plus two spaces, so no name runs into its neighbour.
func columnWidth(names []string) int {
	width := 0
	for _, n := range names {
		width = max(width, len(n))
	}
	return width + 2
}

// AddPaper instantiates a manuscript template into paper/, replacing the
// default scaffold — `popper paper add <template>`.
func (p *Project) AddPaper(template string) error {
	t, ok := paperRegistry[template]
	if !ok {
		return fmt.Errorf("core: unknown paper template %q (try `popper paper list`)", template)
	}
	for rel, content := range t.files {
		p.Files[PaperDir+"/"+rel] = []byte(content)
	}
	return nil
}
