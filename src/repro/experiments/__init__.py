"""One module per paper table/figure, plus the campaign machinery.

Nothing is imported here: ``repro experiment NAME`` imports the one
module it runs, and a campaign never loads the figure modules.
"""

#: Names of the per-table/figure modules; each exposes ``run(...)``.
ALL_EXPERIMENTS = (
    "table1",
    "table2",
    "fig1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig9",
    "fig10_12",
    "sec41_pathvar",
    "sec43_quotes",
    "sec53_banners",
    "sec63_circumvention",
    "sec71_classify",
    "sec74_correlations",
)
