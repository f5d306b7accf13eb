
        .text
_start:
        jal     main
        li      ra, 0
        li      t0, -1
        p_ret                       # ra==0 && t0==-1: process exit

thread:
        addi sp, sp, -112
        sw ra, 64(sp)
        sw s0, 68(sp)
        sw s1, 72(sp)
        sw s2, 76(sp)
        sw s3, 80(sp)
        sw s4, 84(sp)
        sw s5, 88(sp)
        sw s6, 92(sp)
        sw s7, 96(sp)
        sw s8, 100(sp)
        sw s9, 104(sp)
        sw s10, 108(sp)
        mv s0, a0
        mv t1, s0
        li t2, 4
        div t1, t1, t2
        mv s1, t1
        mv t1, s0
        li t2, 4
        rem t1, t1, t2
        mv s2, t1
        li t1, 2147483648
        mv t2, s0
        li t3, 2
        srl t2, t2, t3
        li t3, 20
        sll t2, t2, t3
        add t1, t1, t2
        addi t1, t1, 256
        mv t2, s0
        li t3, 3
        and t2, t2, t3
        slli t2, t2, 6
        add t1, t1, t2
        mv s8, t1
        li t1, 0
        mv s3, t1
.Lfor_2:
        mv t1, s3
        li t2, 4
        bge t1, t2, .Lendfor_4
        li t2, 2147483648
        mv t1, s1
        slli t1, t1, 2
        mv t3, s3
        add t1, t1, t3
        li t3, 3
        and t1, t1, t3
        li t3, 20
        sll t1, t1, t3
        add t2, t2, t1
        mv t1, s1
        slli t1, t1, 2
        mv t3, s3
        add t1, t1, t3
        li t3, 2
        srl t1, t1, t3
        slli t1, t1, 5
        add t2, t2, t1
        mv s9, t2
        li t2, 2147483648
        mv t1, s3
        slli t1, t1, 2
        mv t3, s2
        add t1, t1, t3
        li t3, 3
        and t1, t1, t3
        li t3, 20
        sll t1, t1, t3
        add t2, t2, t1
        addi t2, t2, 128
        mv t1, s3
        slli t1, t1, 2
        mv t3, s2
        add t1, t1, t3
        li t3, 2
        srl t1, t1, t3
        slli t1, t1, 5
        add t2, t2, t1
        mv s10, t2
        li t2, 0
        mv s6, t2
.Lfor_5:
        mv t2, s6
        li t1, 8
        bge t2, t1, .Lendfor_7
        mv t1, s9
        mv t2, s6
        slli t2, t2, 2
        add t1, t1, t2
        lw t2, 0(t1)
        addi t1, sp, 0
        mv t3, s6
        slli t3, t3, 2
        add t1, t1, t3
        sw t2, 0(t1)
.Lforstep_6:
        mv t2, s6
        addi t2, t2, 1
        mv s6, t2
        j .Lfor_5
.Lendfor_7:
        li t2, 0
        mv s6, t2
.Lfor_8:
        mv t2, s6
        li t1, 8
        bge t2, t1, .Lendfor_10
        mv t1, s10
        mv t2, s6
        slli t2, t2, 2
        add t1, t1, t2
        lw t2, 0(t1)
        addi t1, sp, 32
        mv t3, s6
        slli t3, t3, 2
        add t1, t1, t3
        sw t2, 0(t1)
.Lforstep_9:
        mv t2, s6
        addi t2, t2, 1
        mv s6, t2
        j .Lfor_8
.Lendfor_10:
        li t2, 0
        mv s4, t2
.Lfor_11:
        mv t2, s4
        li t1, 4
        bge t2, t1, .Lendfor_13
        li t1, 0
        mv s5, t1
.Lfor_14:
        mv t1, s5
        li t2, 4
        bge t1, t2, .Lendfor_16
        mv t2, s8
        mv t1, s4
        slli t1, t1, 2
        mv t3, s5
        add t1, t1, t3
        slli t1, t1, 2
        add t2, t2, t1
        lw t1, 0(t2)
        mv s7, t1
        li t1, 0
        mv s6, t1
.Lfor_17:
        mv t1, s6
        li t2, 4
        li t3, 2
        div t2, t2, t3
        bge t1, t2, .Lendfor_19
        mv t2, s7
        addi t1, sp, 0
        mv t3, s4
        li t4, 4
        li t5, 2
        div t4, t4, t5
        mul t3, t3, t4
        mv t4, s6
        add t3, t3, t4
        slli t3, t3, 2
        add t1, t1, t3
        lw t3, 0(t1)
        addi t1, sp, 32
        mv t4, s6
        slli t4, t4, 2
        mv t5, s5
        add t4, t4, t5
        slli t4, t4, 2
        add t1, t1, t4
        lw t4, 0(t1)
        mul t3, t3, t4
        add t2, t2, t3
        mv s7, t2
.Lforstep_18:
        mv t2, s6
        addi t2, t2, 1
        mv s6, t2
        j .Lfor_17
.Lendfor_19:
        mv t2, s7
        mv t3, s8
        mv t4, s4
        slli t4, t4, 2
        mv t1, s5
        add t4, t4, t1
        slli t4, t4, 2
        add t3, t3, t4
        sw t2, 0(t3)
.Lforstep_15:
        mv t2, s5
        addi t2, t2, 1
        mv s5, t2
        j .Lfor_14
.Lendfor_16:
.Lforstep_12:
        mv t2, s4
        addi t2, t2, 1
        mv s4, t2
        j .Lfor_11
.Lendfor_13:
.Lforstep_3:
        mv t2, s3
        addi t2, t2, 1
        mv s3, t2
        j .Lfor_2
.Lendfor_4:
.Lret_thread_1:
        lw ra, 64(sp)
        lw s0, 68(sp)
        lw s1, 72(sp)
        lw s2, 76(sp)
        lw s3, 80(sp)
        lw s4, 84(sp)
        lw s5, 88(sp)
        lw s6, 92(sp)
        lw s7, 96(sp)
        lw s8, 100(sp)
        lw s9, 104(sp)
        lw s10, 108(sp)
        addi sp, sp, 112
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
.Lret_main_20:
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
        jal thread
.Lret___omp_body_0_21:
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
XT0:
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .bank 0
        .align 2
YT0:
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .bank 0
        .align 2
ZT0:        .space 256
        .bank 1
        .align 2
XT1:
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .bank 1
        .align 2
YT1:
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .bank 1
        .align 2
ZT1:        .space 256
        .bank 2
        .align 2
XT2:
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .bank 2
        .align 2
YT2:
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .bank 2
        .align 2
ZT2:        .space 256
        .bank 3
        .align 2
XT3:
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .bank 3
        .align 2
YT3:
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .word 1, 1, 1, 1, 1, 1, 1, 1
        .bank 3
        .align 2
ZT3:        .space 256
        .bank 0
__omp_cap_0:        .space 4

        .bank 0
omp_num_threads:
        .word 1
