#!/usr/bin/env bash
# Line count of the library sources, src/*/*.{cpp,hpp}.
#
#   scripts/src_lines.sh             # total lines in the working tree
#   scripts/src_lines.sh BASE_REF    # ... plus added/removed/net vs BASE_REF
#
# The comparison covers the working tree, so uncommitted edits and new
# (untracked, not ignored) source files count too. Informational only: it
# always exits 0 once its arguments are valid.
set -euo pipefail

cd "$(dirname "$0")/.."

shopt -s nullglob
files=(src/*/*.cpp src/*/*.hpp)
total=0
if [[ ${#files[@]} -gt 0 ]]; then
  total=$(cat "${files[@]}" | wc -l)
fi
echo "src lines: ${total} (${#files[@]} files)"

[[ $# -eq 0 ]] && exit 0
base="$1"
git rev-parse --verify --quiet "${base}^{commit}" > /dev/null ||
  { echo "src_lines: unknown ref '${base}'" >&2; exit 2; }

pathspec=(':(glob)src/*/*.cpp' ':(glob)src/*/*.hpp')
read -r added removed < <(git diff --numstat "$base" -- "${pathspec[@]}" |
  awk '{ a += $1; r += $2 } END { print a + 0, r + 0 }')
while IFS= read -r file; do
  added=$((added + $(wc -l < "$file")))
done < <(git ls-files --others --exclude-standard -- "${pathspec[@]}")

echo "vs $(git rev-parse --short "$base"): +${added} -${removed}," \
  "net $((added - removed))"
