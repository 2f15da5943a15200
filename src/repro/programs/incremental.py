"""The multi-function chain program of the function-unit cache.

Not one of the paper's Figure-9 examples: a dedicated program whose
functions prove independently, so each is a one-member verdict unit.
The unit-cache and pipeline-cache tests, ``benchmarks/parity_check.py
--incremental`` and perfbench's ``recheck`` workload check it cold,
warm, and after :data:`INCREMENTAL_EDITED_SOURCE` edits one function.
"""

#: A chain ``main → fone → ftwo → fthree`` of constant-bound loops over
#: the shared array.  The shape matters twice over: forward-propagated
#: facts about the array pointer survive a ``call`` edge into the
#: callee (only the caller's *post-call* state is clobbered), and the
#: masked index bounds every array access by construction, so no loop
#: needs induction — each routine proves its obligations from forward
#: facts alone.  Its verdict unit is therefore a one-member group,
#: replayable independently of the others, exactly the shape
#: function-granular caching targets.
INCREMENTAL_SOURCE = """
! Incremental benchmark: %o0 = arr (64 words); main has no memory ops.
    mov %o7,%g4          ! save the host return address
    call fone
    nop
    mov %g4,%o7          ! restore the return address
    retl
    nop

fone:
! Increment the first 64 elements, then hand off to ftwo.
    mov %o7,%g5          ! save the return address
    clr %g1              ! i = 0
oneloop:
    and %g1,63,%g7     ! masked index: 0 <= %g7 <= 63 by construction
    sll %g7,2,%g2
    ld [%o0+%g2],%g3
    add %g3,1,%g3
    st %g3,[%o0+%g2]
    inc %g1
    cmp %g1,64
    bl oneloop
    nop
    call ftwo
    nop
    mov %g5,%o7
    retl
    nop

ftwo:
! Double the first 64 elements, then hand off to fthree.
    mov %o7,%g6          ! save the return address
    clr %g1
twoloop:
    and %g1,63,%g7     ! masked index: 0 <= %g7 <= 63 by construction
    sll %g7,2,%g2
    ld [%o0+%g2],%g3
    add %g3,%g3,%g3
    st %g3,[%o0+%g2]
    inc %g1
    cmp %g1,64
    bl twoloop
    nop
    call fthree
    nop
    mov %g6,%o7
    retl
    nop

fthree:
! Accumulate the first 64 elements into %o5 (leaf).
    clr %g1
    clr %o5
threeloop:
    and %g1,63,%g7     ! masked index: 0 <= %g7 <= 63 by construction
    sll %g7,2,%g2
    ld [%o0+%g2],%g3
    add %o5,%g3,%o5
    inc %g1
    cmp %g1,64
    bl threeloop
    nop
    retl
    nop
"""

#: The "one function edited" variant: ``fone`` adds 2 instead of 1, so
#: only its body digest changes; ``ftwo``/``fthree`` verdict units
#: from a run of the base program replay as-is.
INCREMENTAL_EDITED_SOURCE = INCREMENTAL_SOURCE.replace(
    "add %g3,1,%g3", "add %g3,2,%g3")

INCREMENTAL_SPEC = """
loc e   : int     = initialized  perms rwo region V summary
loc arr : int[64] = {e}          perms rfo  region V
rule [V : int : rwo]
rule [V : int[64] : rfo]
invoke %o0 = arr
"""
