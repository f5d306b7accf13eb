
        .text
_start:
        jal     main
        li      ra, 0
        li      t0, -1
        p_ret                       # ra==0 && t0==-1: process exit

thread_set:
        addi sp, sp, -32
        sw ra, 0(sp)
        sw s0, 4(sp)
        sw s1, 8(sp)
        sw s2, 12(sp)
        sw s3, 16(sp)
        mv s0, a0
        mv s1, a1
        li t1, 2147483648
        mv t2, s1
        li t3, 2
        srl t2, t2, t3
        li t3, 20
        sll t2, t2, t3
        add t1, t1, t2
        mv t2, s1
        li t3, 3
        and t2, t2, t3
        slli t2, t2, 8
        add t1, t1, t2
        mv s3, t1
        li t1, 0
        mv s2, t1
.Lfor_2:
        mv t1, s2
        li t2, 64
        bge t1, t2, .Lendfor_4
        mv t2, s1
        li t1, 1000
        mul t2, t2, t1
        mv t1, s2
        add t2, t2, t1
        mv t1, s3
        mv t3, s2
        slli t3, t3, 2
        add t1, t1, t3
        sw t2, 0(t1)
.Lforstep_3:
        mv t2, s2
        addi t2, t2, 1
        mv s2, t2
        j .Lfor_2
.Lendfor_4:
.Lret_thread_set_1:
        lw ra, 0(sp)
        lw s0, 4(sp)
        lw s1, 8(sp)
        lw s2, 12(sp)
        lw s3, 16(sp)
        addi sp, sp, 32
        ret

thread_get:
        addi sp, sp, -32
        sw ra, 0(sp)
        sw s0, 4(sp)
        sw s1, 8(sp)
        sw s2, 12(sp)
        sw s3, 16(sp)
        sw s4, 20(sp)
        mv s0, a0
        mv s1, a1
        li t1, 2147483648
        mv t2, s1
        li t3, 2
        srl t2, t2, t3
        li t3, 20
        sll t2, t2, t3
        add t1, t1, t2
        mv t2, s1
        li t3, 3
        and t2, t2, t3
        slli t2, t2, 8
        add t1, t1, t2
        mv s4, t1
        li t1, 0
        mv s3, t1
        li t1, 0
        mv s2, t1
.Lfor_6:
        mv t1, s2
        li t2, 64
        bge t1, t2, .Lendfor_8
        mv t2, s3
        mv t1, s4
        mv t3, s2
        slli t3, t3, 2
        add t1, t1, t3
        lw t3, 0(t1)
        add t2, t2, t3
        mv s3, t2
.Lforstep_7:
        mv t2, s2
        addi t2, t2, 1
        mv s2, t2
        j .Lfor_6
.Lendfor_8:
        mv t2, s3
        li t3, 2147483648
        mv t1, s1
        li t4, 2
        srl t1, t1, t4
        li t4, 20
        sll t1, t1, t4
        add t3, t3, t1
        addi t3, t3, 1024
        mv t1, s1
        li t4, 3
        and t1, t1, t4
        slli t1, t1, 2
        add t3, t3, t1
        sw t2, 0(t3)
.Lret_thread_get_5:
        lw ra, 0(sp)
        lw s0, 4(sp)
        lw s1, 8(sp)
        lw s2, 12(sp)
        lw s3, 16(sp)
        lw s4, 20(sp)
        addi sp, sp, 32
        ret

main:
        addi sp, sp, -16
        sw ra, 0(sp)
        sw s0, 4(sp)
        li t1, 16
        la t2, omp_num_threads
        sw t1, 0(t2)
        la t1, __omp_cap_0
        li t1, 16
        mv a2, t1
        la a0, __omp_worker_0
        la a1, __omp_cap_0
        jal LBP_parallel_start
        la t1, __omp_cap_1
        li t1, 16
        mv a2, t1
        la a0, __omp_worker_1
        la a1, __omp_cap_1
        jal LBP_parallel_start
.Lret_main_9:
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
        li t1, 0
        sw t1, 0(sp)
        mv t1, s2
        sw t1, 4(sp)
        lw a0, 0(sp)
        lw a1, 4(sp)
        jal thread_set
.Lret___omp_body_0_10:
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
        li t1, 0
        sw t1, 0(sp)
        mv t1, s2
        sw t1, 4(sp)
        lw a0, 0(sp)
        lw a1, 4(sp)
        jal thread_get
.Lret___omp_body_1_11:
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
VB0:        .space 1024
        .bank 0
        .align 2
RB0:        .space 16
        .bank 1
        .align 2
VB1:        .space 1024
        .bank 1
        .align 2
RB1:        .space 16
        .bank 2
        .align 2
VB2:        .space 1024
        .bank 2
        .align 2
RB2:        .space 16
        .bank 3
        .align 2
VB3:        .space 1024
        .bank 3
        .align 2
RB3:        .space 16
        .bank 0
__omp_cap_0:        .space 4
        .bank 0
__omp_cap_1:        .space 4

        .bank 0
omp_num_threads:
        .word 1
