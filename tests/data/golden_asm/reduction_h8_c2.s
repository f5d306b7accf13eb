
        .text
_start:
        jal     main
        li      ra, 0
        li      t0, -1
        p_ret                       # ra==0 && t0==-1: process exit

leaf:
        addi sp, sp, -16
        sw ra, 0(sp)
        sw s0, 4(sp)
        sw s1, 8(sp)
        sw s2, 12(sp)
        mv s0, a0
        li t1, 0
        mv s2, t1
        mv t1, s0
        slli t1, t1, 4
        mv s1, t1
.Lfor_2:
        mv t1, s1
        mv t2, s0
        addi t2, t2, 1
        slli t2, t2, 4
        bge t1, t2, .Lendfor_4
        mv t2, s2
        la t1, V
        mv t3, s1
        slli t3, t3, 2
        add t1, t1, t3
        lw t3, 0(t1)
        add t2, t2, t3
        mv s2, t2
.Lforstep_3:
        mv t2, s1
        addi t2, t2, 1
        mv s1, t2
        j .Lfor_2
.Lendfor_4:
        mv t2, s2
        la t3, partial
        mv t1, s0
        slli t1, t1, 2
        add t3, t3, t1
        sw t2, 0(t3)
.Lret_leaf_1:
        lw ra, 0(sp)
        lw s0, 4(sp)
        lw s1, 8(sp)
        lw s2, 12(sp)
        addi sp, sp, 16
        ret

combine0:
        addi sp, sp, -16
        sw ra, 0(sp)
        sw s0, 4(sp)
        mv s0, a0
        la t1, partial
        mv t2, s0
        slli t2, t2, 2
        add t1, t1, t2
        lw t2, 0(t1)
        la t3, partial
        mv t4, s0
        addi t4, t4, 4
        slli t4, t4, 2
        add t3, t3, t4
        lw t4, 0(t3)
        add t2, t2, t4
        sw t2, 0(t1)
.Lret_combine0_5:
        lw ra, 0(sp)
        lw s0, 4(sp)
        addi sp, sp, 16
        ret

combine1:
        addi sp, sp, -16
        sw ra, 0(sp)
        sw s0, 4(sp)
        mv s0, a0
        la t1, partial
        mv t2, s0
        slli t2, t2, 2
        add t1, t1, t2
        lw t2, 0(t1)
        la t3, partial
        mv t4, s0
        addi t4, t4, 2
        slli t4, t4, 2
        add t3, t3, t4
        lw t4, 0(t3)
        add t2, t2, t4
        sw t2, 0(t1)
.Lret_combine1_6:
        lw ra, 0(sp)
        lw s0, 4(sp)
        addi sp, sp, 16
        ret

combine2:
        addi sp, sp, -16
        sw ra, 0(sp)
        sw s0, 4(sp)
        mv s0, a0
        la t1, partial
        mv t2, s0
        slli t2, t2, 2
        add t1, t1, t2
        lw t2, 0(t1)
        la t3, partial
        mv t4, s0
        addi t4, t4, 1
        slli t4, t4, 2
        add t3, t3, t4
        lw t4, 0(t3)
        add t2, t2, t4
        sw t2, 0(t1)
.Lret_combine2_7:
        lw ra, 0(sp)
        lw s0, 4(sp)
        addi sp, sp, 16
        ret

main:
        addi sp, sp, -16
        sw ra, 0(sp)
        sw s0, 4(sp)
        li t1, 8
        la t2, omp_num_threads
        sw t1, 0(t2)
        la t1, __omp_cap_0
        li t1, 8
        mv a2, t1
        la a0, __omp_worker_0
        la a1, __omp_cap_0
        jal LBP_parallel_start
        li t1, 4
        la t2, omp_num_threads
        sw t1, 0(t2)
        la t1, __omp_cap_1
        li t1, 4
        mv a2, t1
        la a0, __omp_worker_1
        la a1, __omp_cap_1
        jal LBP_parallel_start
        li t1, 2
        la t2, omp_num_threads
        sw t1, 0(t2)
        la t1, __omp_cap_2
        li t1, 2
        mv a2, t1
        la a0, __omp_worker_2
        la a1, __omp_cap_2
        jal LBP_parallel_start
        li t1, 1
        la t2, omp_num_threads
        sw t1, 0(t2)
        la t1, __omp_cap_3
        li t1, 1
        mv a2, t1
        la a0, __omp_worker_3
        la a1, __omp_cap_3
        jal LBP_parallel_start
        la t1, partial
        lw t2, 0(t1)
        la t1, result
        sw t2, 0(t1)
.Lret_main_8:
        lw ra, 0(sp)
        lw s0, 4(sp)
        addi sp, sp, 16
        ret

__omp_body_0:
        addi sp, sp, -32
        sw ra, 16(sp)
        sw s0, 20(sp)
        sw s1, 24(sp)
        sw s2, 28(sp)
        mv s0, a0
        mv s1, a1
        mv t1, s1
        mv s2, t1
        mv t1, s2
        sw t1, 0(sp)
        lw a0, 0(sp)
        jal leaf
.Lret___omp_body_0_9:
        lw ra, 16(sp)
        lw s0, 20(sp)
        lw s1, 24(sp)
        lw s2, 28(sp)
        addi sp, sp, 32
        ret

__omp_body_1:
        addi sp, sp, -32
        sw ra, 16(sp)
        sw s0, 20(sp)
        sw s1, 24(sp)
        sw s2, 28(sp)
        mv s0, a0
        mv s1, a1
        mv t1, s1
        mv s2, t1
        mv t1, s2
        sw t1, 0(sp)
        lw a0, 0(sp)
        jal combine0
.Lret___omp_body_1_10:
        lw ra, 16(sp)
        lw s0, 20(sp)
        lw s1, 24(sp)
        lw s2, 28(sp)
        addi sp, sp, 32
        ret

__omp_body_2:
        addi sp, sp, -32
        sw ra, 16(sp)
        sw s0, 20(sp)
        sw s1, 24(sp)
        sw s2, 28(sp)
        mv s0, a0
        mv s1, a1
        mv t1, s1
        mv s2, t1
        mv t1, s2
        sw t1, 0(sp)
        lw a0, 0(sp)
        jal combine1
.Lret___omp_body_2_11:
        lw ra, 16(sp)
        lw s0, 20(sp)
        lw s1, 24(sp)
        lw s2, 28(sp)
        addi sp, sp, 32
        ret

__omp_body_3:
        addi sp, sp, -32
        sw ra, 16(sp)
        sw s0, 20(sp)
        sw s1, 24(sp)
        sw s2, 28(sp)
        mv s0, a0
        mv s1, a1
        mv t1, s1
        mv s2, t1
        mv t1, s2
        sw t1, 0(sp)
        lw a0, 0(sp)
        jal combine2
.Lret___omp_body_3_12:
        lw ra, 16(sp)
        lw s0, 20(sp)
        lw s1, 24(sp)
        lw s2, 28(sp)
        addi sp, sp, 32
        ret


__omp_worker_0:
        addi    sp, sp, -16
        sw      ra, 0(sp)
        sw      t0, 4(sp)
        jal     __omp_body_0
        lw      ra, 0(sp)
        lw      t0, 4(sp)
        addi    sp, sp, 16
        p_ret


__omp_worker_1:
        addi    sp, sp, -16
        sw      ra, 0(sp)
        sw      t0, 4(sp)
        jal     __omp_body_1
        lw      ra, 0(sp)
        lw      t0, 4(sp)
        addi    sp, sp, 16
        p_ret


__omp_worker_2:
        addi    sp, sp, -16
        sw      ra, 0(sp)
        sw      t0, 4(sp)
        jal     __omp_body_2
        lw      ra, 0(sp)
        lw      t0, 4(sp)
        addi    sp, sp, 16
        p_ret


__omp_worker_3:
        addi    sp, sp, -16
        sw      ra, 0(sp)
        sw      t0, 4(sp)
        jal     __omp_body_3
        lw      ra, 0(sp)
        lw      t0, 4(sp)
        addi    sp, sp, 16
        p_ret


# ---- Deterministic OpenMP runtime ------------------------------------------
# LBP_parallel_start(a0=worker, a1=data, a2=nt)
# clobbers t1-t6; t0 becomes the merged team identity on every member.
        .text
LBP_parallel_start:
        p_set   t0, t0              # stamp: this hart is the join hart
        addi    t2, a2, -1          # t2 = last member index
        li      t1, 0               # t1 = member index
LBP_ps_loop:
        beq     t1, t2, LBP_ps_last
        andi    t3, t1, 3          # hart slot inside the core
        addi    t4, t1, 1           # successor member index
        li      t5, 3
        beq     t3, t5, LBP_ps_next_core
        p_fc    t6                  # fork on current core
        j       LBP_ps_send
LBP_ps_next_core:
        p_fn    t6                  # fork on next core
LBP_ps_send:
        p_swcv  t6, ra, 0          # join address
        p_swcv  t6, t0, 4          # join identity
        p_swcv  t6, a0, 8          # worker
        p_swcv  t6, a1, 12          # data
        p_swcv  t6, t4, 16          # successor index
        p_swcv  t6, t2, 20          # last index
        p_merge t0, t0, t6          # identity: join half | allocated half
        p_syncm                     # CV writes must land before the start
        mv      t5, a0
        mv      a0, a1              # worker(data, index)
        mv      a1, t1
        p_jalr  ra, t0, t5          # run worker here; successor starts below
        # ---- executed by the forked hart ----
        p_lwcv  ra, 0
        p_lwcv  t0, 4
        p_lwcv  a0, 8
        p_lwcv  a1, 12
        p_lwcv  t1, 16
        p_lwcv  t2, 20
        j       LBP_ps_loop
LBP_ps_last:
        mv      t5, a0
        mv      a0, a1              # worker(data, last index)
        mv      a1, t1
        jr      t5                  # tail: worker's p_ret joins via ra/t0


        .data

        .bank 0
        .align 2
V:
        .word 499047, 273516, 775852, 994162, 137423, 27615, 984051, 543904
        .word 491427, 402116, 986214, 998985, 832851, 315865, 486375, 317975
        .word 817756, 31765, 134283, 334285, 89735, 631804, 65036, 565039
        .word 991426, 812874, 895347, 828298, 932437, 281331, 766550, 204376
        .word 75259, 285147, 1037845, 455054, 541025, 914697, 631297, 883212
        .word 809220, 735912, 854748, 487349, 706247, 60105, 586543, 342044
        .word 684490, 218262, 442761, 560117, 597599, 260958, 133086, 1010830
        .word 1013991, 185635, 721588, 139695, 860800, 316177, 42205, 616334
        .word 895781, 870731, 249387, 92673, 94246, 792314, 694061, 585259
        .word 494826, 75524, 649425, 15168, 161419, 226742, 65803, 413946
        .word 855504, 611555, 552333, 327573, 88994, 712641, 658150, 755386
        .word 290090, 792281, 790104, 965548, 809905, 215110, 568958, 904274
        .word 498358, 631424, 917390, 541553, 635422, 710741, 24028, 870759
        .word 660343, 42053, 789612, 279484, 125997, 697199, 977798, 740118
        .word 739407, 584946, 1026561, 46520, 127038, 44569, 774194, 526641
        .word 956955, 626285, 671141, 372078, 763269, 388489, 655717, 774171
        .bank 0
        .align 2
partial:        .space 32
        .bank 0
        .align 2
result:        .space 4
        .bank 0
__omp_cap_0:        .space 4
        .bank 0
__omp_cap_1:        .space 4
        .bank 0
__omp_cap_2:        .space 4
        .bank 0
__omp_cap_3:        .space 4

        .bank 0
omp_num_threads:
        .word 1
