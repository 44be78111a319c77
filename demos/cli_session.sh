#!/bin/sh
# A short command-line session touching each subcommand.
set -e

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
printf '[3,3,4,3]\n[3,3,2,4]\n' > "$work/maps.txt"
# the Cerny automaton C_20: the 20-cycle and a map merging points 1 and 2
printf '[2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,1]\n' > "$work/cerny20.txt"
printf '[2,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20]\n' >> "$work/cerny20.txt"

echo '# kernel graph of a transformation set, then of its closure'
kernelgraphs kernel-graph "$work/maps.txt"
kernelgraphs kernel-graph "$work/maps.txt" --closed
kernelgraphs kernel-graph "$work/cerny20.txt" --closed   # min rank 1 from the pair graph

echo '# hulls'
kernelgraphs hull 'DqK'          # P5
kernelgraphs hull 'D~{'          # K5 is its own hull
kernelgraphs hull 'XheAHCPBGG?P?P?G_BG?O?@C?AG?AG?@e??OO?AH??Ga??PA??X'  # C5 box C5
kernelgraphs derived 'DqK'

echo '# automorphisms and endomorphisms'
kernelgraphs aut 'DUW'           # C5
kernelgraphs aut 'K~~~~~~~~~~~'  # K12: an 11-point base, order 479001600
kernelgraphs end-count 'DUW'

echo '# minimal generating sets'
kernelgraphs mingen 'C]'         # K(2,2)
kernelgraphs mingen 'C]' --endomorphisms

echo '# synchronization'
kernelgraphs sync-check "$work/maps.txt" --closure

echo '# census with a sampling experiment'
kernelgraphs census 4 --out "$work/census" --sync-trials 200 --seed 7

echo '# hull preimages'
kernelgraphs preimages 'C~'      # K4

echo '# designs'
kernelgraphs designs mols 5
kernelgraphs designs oa 4
