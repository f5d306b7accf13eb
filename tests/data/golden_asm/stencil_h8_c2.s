
        .text
_start:
        jal     main
        li      ra, 0
        li      t0, -1
        p_ret                       # ra==0 && t0==-1: process exit

step_ab:
        addi sp, sp, -32
        sw ra, 0(sp)
        sw s0, 4(sp)
        sw s1, 8(sp)
        sw s2, 12(sp)
        sw s3, 16(sp)
        mv s0, a0
        mv t1, s0
        slli t1, t1, 3
        mv s2, t1
        mv t1, s2
        addi t1, t1, 8
        mv s3, t1
        mv t1, s2
        li t2, 0
        bne t1, t2, .Lelse_2
        la t2, A
        lw t1, 0(t2)
        la t2, B
        sw t1, 0(t2)
        li t1, 1
        mv s2, t1
.Lelse_2:
        mv t1, s3
        li t2, 64
        bne t1, t2, .Lelse_4
        la t2, A
        lw t1, 252(t2)
        la t2, B
        sw t1, 252(t2)
        li t1, 64
        addi t1, t1, -1
        mv s3, t1
.Lelse_4:
        mv t1, s2
        mv s1, t1
.Lfor_6:
        mv t1, s1
        mv t2, s3
        bge t1, t2, .Lendfor_8
        la t2, A
        mv t1, s1
        addi t1, t1, -1
        slli t1, t1, 2
        add t2, t2, t1
        lw t1, 0(t2)
        la t2, A
        mv t3, s1
        slli t3, t3, 2
        add t2, t2, t3
        lw t3, 0(t2)
        add t1, t1, t3
        la t3, A
        mv t2, s1
        addi t2, t2, 1
        slli t2, t2, 2
        add t3, t3, t2
        lw t2, 0(t3)
        add t1, t1, t2
        li t2, 3
        div t1, t1, t2
        la t2, B
        mv t3, s1
        slli t3, t3, 2
        add t2, t2, t3
        sw t1, 0(t2)
.Lforstep_7:
        mv t1, s1
        addi t1, t1, 1
        mv s1, t1
        j .Lfor_6
.Lendfor_8:
.Lret_step_ab_1:
        lw ra, 0(sp)
        lw s0, 4(sp)
        lw s1, 8(sp)
        lw s2, 12(sp)
        lw s3, 16(sp)
        addi sp, sp, 32
        ret

step_ba:
        addi sp, sp, -32
        sw ra, 0(sp)
        sw s0, 4(sp)
        sw s1, 8(sp)
        sw s2, 12(sp)
        sw s3, 16(sp)
        mv s0, a0
        mv t1, s0
        slli t1, t1, 3
        mv s2, t1
        mv t1, s2
        addi t1, t1, 8
        mv s3, t1
        mv t1, s2
        li t2, 0
        bne t1, t2, .Lelse_10
        la t2, B
        lw t1, 0(t2)
        la t2, A
        sw t1, 0(t2)
        li t1, 1
        mv s2, t1
.Lelse_10:
        mv t1, s3
        li t2, 64
        bne t1, t2, .Lelse_12
        la t2, B
        lw t1, 252(t2)
        la t2, A
        sw t1, 252(t2)
        li t1, 64
        addi t1, t1, -1
        mv s3, t1
.Lelse_12:
        mv t1, s2
        mv s1, t1
.Lfor_14:
        mv t1, s1
        mv t2, s3
        bge t1, t2, .Lendfor_16
        la t2, B
        mv t1, s1
        addi t1, t1, -1
        slli t1, t1, 2
        add t2, t2, t1
        lw t1, 0(t2)
        la t2, B
        mv t3, s1
        slli t3, t3, 2
        add t2, t2, t3
        lw t3, 0(t2)
        add t1, t1, t3
        la t3, B
        mv t2, s1
        addi t2, t2, 1
        slli t2, t2, 2
        add t3, t3, t2
        lw t2, 0(t3)
        add t1, t1, t2
        li t2, 3
        div t1, t1, t2
        la t2, A
        mv t3, s1
        slli t3, t3, 2
        add t2, t2, t3
        sw t1, 0(t2)
.Lforstep_15:
        mv t1, s1
        addi t1, t1, 1
        mv s1, t1
        j .Lfor_14
.Lendfor_16:
.Lret_step_ba_9:
        lw ra, 0(sp)
        lw s0, 4(sp)
        lw s1, 8(sp)
        lw s2, 12(sp)
        lw s3, 16(sp)
        addi sp, sp, 32
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
        la t1, __omp_cap_1
        li t1, 8
        mv a2, t1
        la a0, __omp_worker_1
        la a1, __omp_cap_1
        jal LBP_parallel_start
        la t1, __omp_cap_2
        li t1, 8
        mv a2, t1
        la a0, __omp_worker_2
        la a1, __omp_cap_2
        jal LBP_parallel_start
        la t1, __omp_cap_3
        li t1, 8
        mv a2, t1
        la a0, __omp_worker_3
        la a1, __omp_cap_3
        jal LBP_parallel_start
.Lret_main_17:
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
        jal step_ab
.Lret___omp_body_0_18:
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
        jal step_ba
.Lret___omp_body_1_19:
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
        jal step_ab
.Lret___omp_body_2_20:
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
        jal step_ba
.Lret___omp_body_3_21:
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
A:
        .word 121, 66, 189, 242, 33, 6, 240, 132
        .word 119, 98, 240, 243, 203, 77, 118, 77
        .word 199, 7, 32, 81, 21, 154, 15, 137
        .word 242, 198, 218, 202, 227, 68, 187, 49
        .word 18, 69, 253, 111, 132, 223, 154, 215
        .word 197, 179, 208, 118, 172, 14, 143, 83
        .word 167, 53, 108, 136, 145, 63, 32, 246
        .word 247, 45, 176, 34, 210, 77, 10, 150
        .bank 0
        .align 2
B:        .space 256
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
