	.section .note.GNU-stack,"",@progbits
	.text
	.globl dgemv_kernel
	.type dgemv_kernel, @function
	.p2align 4
dgemv_kernel:
	push	%r12
	push	%r13
	push	%rbp
	push	%rbx
	sub	$96, %rsp
	mov	%rdi, (%rsp)	# arg M
	mov	%rsi, 8(%rsp)	# arg N
	mov	%rdx, 16(%rsp)	# arg A
	mov	%rcx, 24(%rsp)	# arg LDA
	mov	%r8, 32(%rsp)	# arg X
	mov	%r9, 40(%rsp)	# arg Y
	mov	32(%rsp), %r13	# home X
	mov	(%rsp), %rcx	# home M
	mov	8(%rsp), %r10	# home N
	mov	16(%rsp), %rbx	# home A
	mov	24(%rsp), %rbp	# home LDA
	mov	40(%rsp), %r12	# home Y
	mov	%r13, %r9
	mov	$0, %r8
	jmp	.LBL0
.LBL1:
	mov	%r8, %rax
	imul	%rbp, %rax
	vbroadcastsd	(%r9), %zmm8	# scal = Vdup ptr_X0[0]
	mov	%rbx, %rsi
	mov	%r12, %rdi
	lea	(%rsi,%rax,8), %rsi
	mov	$0, %rdx
	jmp	.LBL2
.LBL3:
	prefetcht0	1024(%rsi)
	# --- mvUnrolledCOMP ---
	vmovupd	(%rsi), %zmm0	# Vld ptr_A0[0..7]
	vmovupd	(%rdi), %zmm16	# Vld ptr_Y0[0..7]
	vfmadd231pd	%zmm0, %zmm8, %zmm16	# B += A*scal
	vmovupd	%zmm16, (%rdi)	# Vst ptr_Y0[0..7]
	vmovupd	64(%rsi), %zmm1	# Vld ptr_A0[8..15]
	vmovupd	64(%rdi), %zmm17	# Vld ptr_Y0[8..15]
	vfmadd231pd	%zmm1, %zmm8, %zmm17	# B += A*scal
	vmovupd	%zmm17, 64(%rdi)	# Vst ptr_Y0[8..15]
	add	$128, %rdi	# ptr_Y0 += 16
	add	$128, %rsi	# ptr_A0 += 16
	add	$16, %rdx
.LBL2:
	cmp	%rcx, %rdx
	jl	.LBL3
	add	$8, %r9	# ptr_X0 += 1
	add	$1, %r8
.LBL0:
	cmp	%r10, %r8
	jl	.LBL1
	add	$96, %rsp
	pop	%rbx
	pop	%rbp
	pop	%r13
	vzeroupper
	pop	%r12
	ret
	.size dgemv_kernel, .-dgemv_kernel
