
        .text
_start:
        jal     main
        li      ra, 0
        li      t0, -1
        p_ret                       # ra==0 && t0==-1: process exit

sort_slice:
        addi sp, sp, -32
        sw ra, 0(sp)
        sw s0, 4(sp)
        sw s1, 8(sp)
        sw s2, 12(sp)
        sw s3, 16(sp)
        sw s4, 20(sp)
        sw s5, 24(sp)
        mv s0, a0
        mv t1, s0
        slli t1, t1, 3
        mv s4, t1
        mv t1, s4
        addi t1, t1, 8
        mv s5, t1
        mv t1, s4
        addi t1, t1, 1
        mv s1, t1
.Lfor_2:
        mv t1, s1
        mv t2, s5
        bge t1, t2, .Lendfor_4
        la t2, A
        mv t1, s1
        slli t1, t1, 2
        add t2, t2, t1
        lw t1, 0(t2)
        mv s3, t1
        mv t1, s1
        addi t1, t1, -1
        mv s2, t1
.Lwhile_5:
        mv t1, s2
        mv t2, s4
        blt t1, t2, .Lendwhile_6
        la t2, A
        mv t1, s2
        slli t1, t1, 2
        add t2, t2, t1
        lw t1, 0(t2)
        mv t2, s3
        ble t1, t2, .Lendwhile_6
        la t2, A
        mv t1, s2
        slli t1, t1, 2
        add t2, t2, t1
        lw t1, 0(t2)
        la t2, A
        mv t3, s2
        addi t3, t3, 1
        slli t3, t3, 2
        add t2, t2, t3
        sw t1, 0(t2)
        mv t1, s2
        addi t1, t1, -1
        mv s2, t1
        j .Lwhile_5
.Lendwhile_6:
        mv t1, s3
        la t2, A
        mv t3, s2
        addi t3, t3, 1
        slli t3, t3, 2
        add t2, t2, t3
        sw t1, 0(t2)
.Lforstep_3:
        mv t1, s1
        addi t1, t1, 1
        mv s1, t1
        j .Lfor_2
.Lendfor_4:
.Lret_sort_slice_1:
        lw ra, 0(sp)
        lw s0, 4(sp)
        lw s1, 8(sp)
        lw s2, 12(sp)
        lw s3, 16(sp)
        lw s4, 20(sp)
        lw s5, 24(sp)
        addi sp, sp, 32
        ret

merge1:
        addi sp, sp, -32
        sw ra, 0(sp)
        sw s0, 4(sp)
        sw s1, 8(sp)
        sw s2, 12(sp)
        sw s3, 16(sp)
        sw s4, 20(sp)
        sw s5, 24(sp)
        sw s6, 28(sp)
        mv s0, a0
        mv t1, s0
        slli t1, t1, 4
        mv s1, t1
        mv t1, s1
        addi t1, t1, 8
        mv s2, t1
        mv t1, s2
        addi t1, t1, 8
        mv s3, t1
        mv t1, s1
        mv s4, t1
        mv t1, s2
        mv s5, t1
        mv t1, s1
        mv s6, t1
.Lwhile_8:
        mv t1, s4
        mv t2, s2
        bge t1, t2, .Lendwhile_9
        mv t2, s5
        mv t1, s3
        bge t2, t1, .Lendwhile_9
        la t1, A
        mv t2, s4
        slli t2, t2, 2
        add t1, t1, t2
        lw t2, 0(t1)
        la t1, A
        mv t3, s5
        slli t3, t3, 2
        add t1, t1, t3
        lw t3, 0(t1)
        bgt t2, t3, .Lelse_10
        la t3, A
        mv t2, s4
        slli t2, t2, 2
        add t3, t3, t2
        lw t2, 0(t3)
        la t3, B
        mv t1, s6
        slli t1, t1, 2
        add t3, t3, t1
        sw t2, 0(t3)
        mv t2, s4
        addi t2, t2, 1
        mv s4, t2
        j .Lendif_11
.Lelse_10:
        la t2, A
        mv t3, s5
        slli t3, t3, 2
        add t2, t2, t3
        lw t3, 0(t2)
        la t2, B
        mv t1, s6
        slli t1, t1, 2
        add t2, t2, t1
        sw t3, 0(t2)
        mv t3, s5
        addi t3, t3, 1
        mv s5, t3
.Lendif_11:
        mv t3, s6
        addi t3, t3, 1
        mv s6, t3
        j .Lwhile_8
.Lendwhile_9:
.Lwhile_12:
        mv t3, s4
        mv t2, s2
        bge t3, t2, .Lendwhile_13
        la t2, A
        mv t3, s4
        slli t3, t3, 2
        add t2, t2, t3
        lw t3, 0(t2)
        la t2, B
        mv t1, s6
        slli t1, t1, 2
        add t2, t2, t1
        sw t3, 0(t2)
        mv t3, s4
        addi t3, t3, 1
        mv s4, t3
        mv t3, s6
        addi t3, t3, 1
        mv s6, t3
        j .Lwhile_12
.Lendwhile_13:
.Lwhile_14:
        mv t3, s5
        mv t2, s3
        bge t3, t2, .Lendwhile_15
        la t2, A
        mv t3, s5
        slli t3, t3, 2
        add t2, t2, t3
        lw t3, 0(t2)
        la t2, B
        mv t1, s6
        slli t1, t1, 2
        add t2, t2, t1
        sw t3, 0(t2)
        mv t3, s5
        addi t3, t3, 1
        mv s5, t3
        mv t3, s6
        addi t3, t3, 1
        mv s6, t3
        j .Lwhile_14
.Lendwhile_15:
.Lret_merge1_7:
        lw ra, 0(sp)
        lw s0, 4(sp)
        lw s1, 8(sp)
        lw s2, 12(sp)
        lw s3, 16(sp)
        lw s4, 20(sp)
        lw s5, 24(sp)
        lw s6, 28(sp)
        addi sp, sp, 32
        ret

merge2:
        addi sp, sp, -32
        sw ra, 0(sp)
        sw s0, 4(sp)
        sw s1, 8(sp)
        sw s2, 12(sp)
        sw s3, 16(sp)
        sw s4, 20(sp)
        sw s5, 24(sp)
        sw s6, 28(sp)
        mv s0, a0
        mv t1, s0
        slli t1, t1, 5
        mv s1, t1
        mv t1, s1
        addi t1, t1, 16
        mv s2, t1
        mv t1, s2
        addi t1, t1, 16
        mv s3, t1
        mv t1, s1
        mv s4, t1
        mv t1, s2
        mv s5, t1
        mv t1, s1
        mv s6, t1
.Lwhile_17:
        mv t1, s4
        mv t2, s2
        bge t1, t2, .Lendwhile_18
        mv t2, s5
        mv t1, s3
        bge t2, t1, .Lendwhile_18
        la t1, B
        mv t2, s4
        slli t2, t2, 2
        add t1, t1, t2
        lw t2, 0(t1)
        la t1, B
        mv t3, s5
        slli t3, t3, 2
        add t1, t1, t3
        lw t3, 0(t1)
        bgt t2, t3, .Lelse_19
        la t3, B
        mv t2, s4
        slli t2, t2, 2
        add t3, t3, t2
        lw t2, 0(t3)
        la t3, A
        mv t1, s6
        slli t1, t1, 2
        add t3, t3, t1
        sw t2, 0(t3)
        mv t2, s4
        addi t2, t2, 1
        mv s4, t2
        j .Lendif_20
.Lelse_19:
        la t2, B
        mv t3, s5
        slli t3, t3, 2
        add t2, t2, t3
        lw t3, 0(t2)
        la t2, A
        mv t1, s6
        slli t1, t1, 2
        add t2, t2, t1
        sw t3, 0(t2)
        mv t3, s5
        addi t3, t3, 1
        mv s5, t3
.Lendif_20:
        mv t3, s6
        addi t3, t3, 1
        mv s6, t3
        j .Lwhile_17
.Lendwhile_18:
.Lwhile_21:
        mv t3, s4
        mv t2, s2
        bge t3, t2, .Lendwhile_22
        la t2, B
        mv t3, s4
        slli t3, t3, 2
        add t2, t2, t3
        lw t3, 0(t2)
        la t2, A
        mv t1, s6
        slli t1, t1, 2
        add t2, t2, t1
        sw t3, 0(t2)
        mv t3, s4
        addi t3, t3, 1
        mv s4, t3
        mv t3, s6
        addi t3, t3, 1
        mv s6, t3
        j .Lwhile_21
.Lendwhile_22:
.Lwhile_23:
        mv t3, s5
        mv t2, s3
        bge t3, t2, .Lendwhile_24
        la t2, B
        mv t3, s5
        slli t3, t3, 2
        add t2, t2, t3
        lw t3, 0(t2)
        la t2, A
        mv t1, s6
        slli t1, t1, 2
        add t2, t2, t1
        sw t3, 0(t2)
        mv t3, s5
        addi t3, t3, 1
        mv s5, t3
        mv t3, s6
        addi t3, t3, 1
        mv s6, t3
        j .Lwhile_23
.Lendwhile_24:
.Lret_merge2_16:
        lw ra, 0(sp)
        lw s0, 4(sp)
        lw s1, 8(sp)
        lw s2, 12(sp)
        lw s3, 16(sp)
        lw s4, 20(sp)
        lw s5, 24(sp)
        lw s6, 28(sp)
        addi sp, sp, 32
        ret

merge3:
        addi sp, sp, -32
        sw ra, 0(sp)
        sw s0, 4(sp)
        sw s1, 8(sp)
        sw s2, 12(sp)
        sw s3, 16(sp)
        sw s4, 20(sp)
        sw s5, 24(sp)
        sw s6, 28(sp)
        mv s0, a0
        mv t1, s0
        slli t1, t1, 6
        mv s1, t1
        mv t1, s1
        addi t1, t1, 32
        mv s2, t1
        mv t1, s2
        addi t1, t1, 32
        mv s3, t1
        mv t1, s1
        mv s4, t1
        mv t1, s2
        mv s5, t1
        mv t1, s1
        mv s6, t1
.Lwhile_26:
        mv t1, s4
        mv t2, s2
        bge t1, t2, .Lendwhile_27
        mv t2, s5
        mv t1, s3
        bge t2, t1, .Lendwhile_27
        la t1, A
        mv t2, s4
        slli t2, t2, 2
        add t1, t1, t2
        lw t2, 0(t1)
        la t1, A
        mv t3, s5
        slli t3, t3, 2
        add t1, t1, t3
        lw t3, 0(t1)
        bgt t2, t3, .Lelse_28
        la t3, A
        mv t2, s4
        slli t2, t2, 2
        add t3, t3, t2
        lw t2, 0(t3)
        la t3, B
        mv t1, s6
        slli t1, t1, 2
        add t3, t3, t1
        sw t2, 0(t3)
        mv t2, s4
        addi t2, t2, 1
        mv s4, t2
        j .Lendif_29
.Lelse_28:
        la t2, A
        mv t3, s5
        slli t3, t3, 2
        add t2, t2, t3
        lw t3, 0(t2)
        la t2, B
        mv t1, s6
        slli t1, t1, 2
        add t2, t2, t1
        sw t3, 0(t2)
        mv t3, s5
        addi t3, t3, 1
        mv s5, t3
.Lendif_29:
        mv t3, s6
        addi t3, t3, 1
        mv s6, t3
        j .Lwhile_26
.Lendwhile_27:
.Lwhile_30:
        mv t3, s4
        mv t2, s2
        bge t3, t2, .Lendwhile_31
        la t2, A
        mv t3, s4
        slli t3, t3, 2
        add t2, t2, t3
        lw t3, 0(t2)
        la t2, B
        mv t1, s6
        slli t1, t1, 2
        add t2, t2, t1
        sw t3, 0(t2)
        mv t3, s4
        addi t3, t3, 1
        mv s4, t3
        mv t3, s6
        addi t3, t3, 1
        mv s6, t3
        j .Lwhile_30
.Lendwhile_31:
.Lwhile_32:
        mv t3, s5
        mv t2, s3
        bge t3, t2, .Lendwhile_33
        la t2, A
        mv t3, s5
        slli t3, t3, 2
        add t2, t2, t3
        lw t3, 0(t2)
        la t2, B
        mv t1, s6
        slli t1, t1, 2
        add t2, t2, t1
        sw t3, 0(t2)
        mv t3, s5
        addi t3, t3, 1
        mv s5, t3
        mv t3, s6
        addi t3, t3, 1
        mv s6, t3
        j .Lwhile_32
.Lendwhile_33:
.Lret_merge3_25:
        lw ra, 0(sp)
        lw s0, 4(sp)
        lw s1, 8(sp)
        lw s2, 12(sp)
        lw s3, 16(sp)
        lw s4, 20(sp)
        lw s5, 24(sp)
        lw s6, 28(sp)
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
.Lret_main_34:
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
        jal sort_slice
.Lret___omp_body_0_35:
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
        jal merge1
.Lret___omp_body_1_36:
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
        jal merge2
.Lret___omp_body_2_37:
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
        jal merge3
.Lret___omp_body_3_38:
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
        .word 31190, 77678, 71333, 17094, 48490, 79157, 62135, 82014
        .word 76133, 8588, 79377, 1725, 61503, 33994, 72192, 30714
        .word 25132, 93998, 61638, 70906, 72041, 62436, 52053, 83763
        .word 19741, 30398, 83212, 19873, 68574, 51109, 97157, 1985
        .word 88003, 8392, 20892, 99382, 77476, 5608, 39487, 4064
        .word 35314, 61964, 77955, 94217, 50804, 93602, 55959, 51768
        .word 95436, 75616, 58277, 17583, 47909, 12773, 4703, 17821
        .word 64865, 28440, 33814, 88085, 57168, 82136, 39456, 55200
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
