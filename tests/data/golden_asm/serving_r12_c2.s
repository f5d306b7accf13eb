
        .text
_start:
        jal     main
        li      ra, 0
        li      t0, -1
        p_ret                       # ra==0 && t0==-1: process exit

worker:
        addi sp, sp, -48
        sw ra, 0(sp)
        sw s0, 4(sp)
        sw s1, 8(sp)
        sw s2, 12(sp)
        sw s3, 16(sp)
        sw s4, 20(sp)
        sw s5, 24(sp)
        sw s6, 28(sp)
        sw s7, 32(sp)
        mv s0, a0
        p_set t1, zero
        slli t1, t1, 1
        srli t1, t1, 17
        la t2, reg
        mv t3, s0
        slli t3, t3, 2
        add t2, t2, t3
        sw t1, 0(t2)
        li t1, 0
        mv s1, t1
.Lfor_2:
        mv t1, s1
        la t2, wq
        mv t3, s0
        slli t3, t3, 2
        add t2, t2, t3
        lw t3, 0(t2)
        bge t1, t3, .Lendfor_4
        p_lwre t3, 0
        mv s2, t3
        mv t3, s2
        li t1, 16
        sra t3, t3, t1
        li t1, 16383
        and t3, t3, t1
        mv s3, t3
        mv t3, s2
        li t1, 12
        sra t3, t3, t1
        li t1, 15
        and t3, t3, t1
        mv s4, t3
        mv t3, s2
        li t1, 4095
        and t3, t3, t1
        mv s5, t3
        mv t3, s4
        li t1, 0
        bne t3, t1, .Lelse_5
        mv t1, s5
        mv s6, t1
        j .Lendif_6
.Lelse_5:
        mv t1, s4
        li t3, 1
        bne t1, t3, .Lelse_7
        li t3, 0
        mv s6, t3
        li t3, 0
        mv s7, t3
.Lfor_9:
        mv t3, s7
        mv t1, s5
        li t2, 63
        and t1, t1, t2
        bgt t3, t1, .Lendfor_11
        mv t1, s6
        mv t3, s7
        li t2, 3
        mul t3, t3, t2
        addi t3, t3, 1
        add t1, t1, t3
        mv s6, t1
.Lforstep_10:
        mv t1, s7
        addi t1, t1, 1
        mv s7, t1
        j .Lfor_9
.Lendfor_11:
        j .Lendif_8
.Lelse_7:
        mv t1, s4
        li t3, 2
        bne t1, t3, .Lelse_12
        mv t3, s5
        mv s6, t3
        li t3, 0
        mv s7, t3
.Lfor_14:
        mv t3, s7
        mv t1, s5
        li t2, 31
        and t1, t1, t2
        addi t1, t1, 1
        bge t3, t1, .Lendfor_16
        mv t1, s6
        li t3, 1
        sll t1, t1, t3
        mv t3, s7
        add t1, t1, t3
        li t3, 23297
        xor t1, t1, t3
        mv s6, t1
.Lforstep_15:
        mv t1, s7
        addi t1, t1, 1
        mv s7, t1
        j .Lfor_14
.Lendfor_16:
        j .Lendif_13
.Lelse_12:
        la t1, lut
        mv t3, s5
        li t2, 15
        and t3, t3, t2
        slli t3, t3, 2
        add t1, t1, t3
        lw t3, 0(t1)
        mv t1, s5
        add t3, t3, t1
        mv s6, t3
.Lendif_13:
.Lendif_8:
.Lendif_6:
        mv t3, s6
        la t1, results
        mv t2, s3
        slli t2, t2, 2
        add t1, t1, t2
        sw t3, 0(t1)
.Lforstep_3:
        mv t3, s1
        addi t3, t3, 1
        mv s1, t3
        j .Lfor_2
.Lendfor_4:
.Lret_worker_1:
        lw ra, 0(sp)
        lw s0, 4(sp)
        lw s1, 8(sp)
        lw s2, 12(sp)
        lw s3, 16(sp)
        lw s4, 20(sp)
        lw s5, 24(sp)
        lw s6, 28(sp)
        lw s7, 32(sp)
        addi sp, sp, 48
        ret

controller:
        addi sp, sp, -48
        sw ra, 32(sp)
        sw s0, 36(sp)
        sw s1, 40(sp)
        sw s2, 44(sp)
        li t1, 0
        mv s1, t1
.Lfor_18:
        mv t1, s1
        li t2, 7
        bge t1, t2, .Lendfor_20
.Lwhile_21:
        la t2, reg
        mv t1, s1
        slli t1, t1, 2
        add t2, t2, t1
        lw t1, 0(t2)
        li t2, 1
        neg t2, t2
        bne t1, t2, .Lendwhile_22
        j .Lwhile_21
.Lendwhile_22:
        la t2, reg
        mv t1, s1
        slli t1, t1, 2
        add t2, t2, t1
        lw t1, 0(t2)
        addi t2, sp, 0
        mv t3, s1
        slli t3, t3, 2
        add t2, t2, t3
        sw t1, 0(t2)
.Lforstep_19:
        mv t1, s1
        addi t1, t1, 1
        mv s1, t1
        j .Lfor_18
.Lendfor_20:
        li t1, 0
        mv s0, t1
.Lfor_23:
        mv t1, s0
        li t2, 12
        bge t1, t2, .Lendfor_25
        li t2, 0
        mv s2, t2
.Lfor_26:
        mv t2, s2
        la t1, req_gap
        mv t3, s0
        slli t3, t3, 2
        add t1, t1, t3
        lw t3, 0(t1)
        bge t2, t3, .Lendfor_28
.Lforstep_27:
        mv t3, s2
        addi t3, t3, 1
        mv s2, t3
        j .Lfor_26
.Lendfor_28:
        mv t3, s0
        addi t3, t3, 1
        la t2, issued
        mv t1, s0
        slli t1, t1, 2
        add t2, t2, t1
        sw t3, 0(t2)
        addi t3, sp, 0
        la t2, req_worker
        mv t1, s0
        slli t1, t1, 2
        add t2, t2, t1
        lw t1, 0(t2)
        slli t1, t1, 2
        add t3, t3, t1
        lw t1, 0(t3)
        la t3, req_payload
        mv t2, s0
        slli t2, t2, 2
        add t3, t3, t2
        lw t2, 0(t3)
        p_swre t1, t2, 0
.Lforstep_24:
        mv t2, s0
        addi t2, t2, 1
        mv s0, t2
        j .Lfor_23
.Lendfor_25:
.Lret_controller_17:
        lw ra, 32(sp)
        lw s0, 36(sp)
        lw s1, 40(sp)
        lw s2, 44(sp)
        addi sp, sp, 48
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
.Lret_main_29:
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
        li t2, 8
        addi t2, t2, -1
        bne t1, t2, .Lelse_31
        jal controller
        j .Lendif_32
.Lelse_31:
        mv t2, s2
        sw t2, 0(sp)
        lw a0, 0(sp)
        jal worker
.Lendif_32:
.Lret___omp_body_0_30:
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
req_worker:
        .word 0
        .word 1, 2, 3, 4, 5, 6, 0, 1
        .word 2, 3, 4
        .bank 0
        .align 2
req_payload:
        .word 12772, 67364, 146609, 205181, 268612, 328644, 394696, 472579
        .word 524802, 591511, 671150, 736896
        .bank 0
        .align 2
req_gap:
        .word 40, 7, 7, 39, 30, 40, 10, 27
        .word 40, 35, 24, 27
        .bank 0
        .align 2
wq:
        .word 2, 2, 2, 2, 2, 1, 1
        .bank 0
        .align 2
lut:
        .word 42445, 19772, 51750, 6328, 9494, 12337, 47931, 7602
        .word 28140, 4914, 11265, 56838, 54810, 9156, 31544, 11889
        .bank 1
        .align 2
reg:
        .word -1, -1, -1, -1, -1, -1, -1
        .bank 0
        .align 2
issued:        .space 48
        .bank 0
        .align 2
results:        .space 48
        .bank 0
__omp_cap_0:        .space 4

        .bank 0
omp_num_threads:
        .word 1
