# Shared setup of scripts/perf_pairs.sh and scripts/counter_diff.sh;
# source it, do not run it.
#
# extract_and_build <rev> extracts <rev> (with `git archive`) under
# target/perf-pairs/<sha>/, reused on later calls, and builds its
# perfbench and the working tree's (release, offline). It sets `root`
# (the working tree), `base` (target/perf-pairs) and `parent` (the
# extracted tree); each tree's binary is
# `$dir/perfbench/target/release/perfbench`.
extract_and_build() {
    root=$(git rev-parse --show-toplevel)
    local sha dir
    sha=$(git -C "$root" rev-parse --verify "$1^{commit}")
    base="$root/target/perf-pairs"
    parent="$base/$sha"
    if [ ! -f "$parent/perfbench/Cargo.toml" ]; then
        rm -rf "$parent.tmp"
        mkdir -p "$parent.tmp"
        git -C "$root" archive "$sha" | tar -x -C "$parent.tmp"
        mv "$parent.tmp" "$parent"
    fi
    for dir in "$parent" "$root"; do
        cargo build --release --offline --quiet \
            --manifest-path "$dir/perfbench/Cargo.toml" --target-dir "$dir/perfbench/target"
    done
}
